"""Resource budgets and the ambient run governor.

A long run dies three ways the fault framework never modelled: the
disk under the trace cache fills (ENOSPC mid-store), the process heap
outgrows the machine (the OOM killer is not a recoverable fault), or
the operator's time runs out with nothing saved.  This module
makes all three *budgets* — explicit, operator-set ceilings — and
gives the rest of the codebase one ambient object to ask "am I still
inside them?".

Three budget axes, one :class:`ResourceBudget`:

* ``disk_quota`` — bytes the trace cache may occupy.  Enforced by
  the LRU eviction GC in :mod:`repro.governor.gc`.
* ``mem_budget`` — a high-water mark on the process's ``maxrss``.
  Breaching it does not kill anything; it *degrades*: new supervised
  maps clamp to serial execution (worker processes are the multiplier
  on resident memory) and the breach is recorded.
* ``deadline_s`` — a run-level wall-clock budget.  Expiry drains the
  supervisor exactly like SIGINT: in-flight work is cancelled, the
  journal keeps every completed point, a partial report prints, and
  ``--resume`` finishes the sweep byte-identically.

Every breach produces a :class:`~repro.faults.report.DegradationRecord`
with the :data:`~repro.faults.report.GOVERNOR` source and a
``repro_governor_events_total`` counter increment, so a degraded run is
never silently degraded.

:func:`govern` installs the ambient :class:`GovernorState` the same way
:func:`repro.harness.supervisor.supervise` installs its context, so
budget enforcement reaches the supervisor, the trace cache, and the
sinks without threading a parameter through every signature.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import ConfigurationError
from repro.faults.report import GOVERNOR, DegradationRecord
from repro.telemetry import runtime as telemetry


def maxrss_bytes() -> int:
    """The process's resident-set high-water mark, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS — the one
    platform wrinkle this module owns so nobody else has to.
    """
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024


@dataclass(frozen=True)
class ResourceBudget:
    """Operator-set ceilings for one run; None disables an axis.

    Attributes:
        disk_quota: bytes the trace cache may occupy.
        mem_budget: maxrss high-water mark in bytes.
        deadline_s: run wall-clock budget in seconds, measured from
            :func:`govern` entry.
    """

    disk_quota: int | None = None
    mem_budget: int | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.disk_quota is not None and self.disk_quota <= 0:
            raise ConfigurationError(
                f"disk quota must be positive, got {self.disk_quota}"
            )
        if self.mem_budget is not None and self.mem_budget <= 0:
            raise ConfigurationError(
                f"memory budget must be positive, got {self.mem_budget}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline must be positive, got {self.deadline_s}"
            )

    @property
    def any_set(self) -> bool:
        return (
            self.disk_quota is not None
            or self.mem_budget is not None
            or self.deadline_s is not None
        )


class GovernorState:
    """One run's budget-enforcement state (latches, records, clock).

    The deadline anchor is taken at construction (monotonic), so a
    governor built at CLI entry measures the whole run, setup included
    — the budget the operator actually meant.
    """

    def __init__(
        self,
        budget: ResourceBudget,
        maxrss_fn: Callable[[], int] = maxrss_bytes,
    ) -> None:
        self.budget = budget
        self.records: list[DegradationRecord] = []
        self.counts: dict[str, int] = {}
        self._maxrss_fn = maxrss_fn
        self._mem_breached = False
        self._deadline_noted = False
        self.deadline_at: float | None = (
            None
            if budget.deadline_s is None
            else time.monotonic() + budget.deadline_s
        )

    # -- bookkeeping ---------------------------------------------------

    def count(self, event: str, n: int = 1) -> None:
        self.counts[event] = self.counts.get(event, 0) + n
        telemetry.counter("repro_governor_events_total", event=event).inc(n)

    def record(self, kind: str, detail: str = "", count: int = 1) -> None:
        """One budget-triggered fallback, counted and kept for the report."""
        self.records.append(
            DegradationRecord(kind=kind, source=GOVERNOR, count=count, detail=detail)
        )
        self.count(kind, count)

    def describe(self) -> str:
        """One-line event summary (empty when no budget ever fired)."""
        return " ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))

    # -- deadline ------------------------------------------------------

    def deadline_expired(self) -> bool:
        return self.deadline_at is not None and time.monotonic() >= self.deadline_at

    def deadline_remaining(self) -> float | None:
        """Seconds left on the clock, or None when no deadline is set."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - time.monotonic())

    def note_deadline(self, completed: int, total: int) -> None:
        """Record the expiry once, no matter how many layers observe it."""
        if self._deadline_noted:
            return
        self._deadline_noted = True
        self.record(
            "deadline",
            detail=f"expired after {self.budget.deadline_s:.3g}s with "
            f"{completed}/{total} points complete",
        )

    # -- memory --------------------------------------------------------

    def memory_pressure(self) -> bool:
        """Whether maxrss has (ever) crossed the budget.

        The breach latches: maxrss is a high-water mark, so once over
        it the process never reads under again — and the degradation
        (serial maps) should stay in force for the rest of the run.
        The first breach leaves a degradation record.
        """
        if self.budget.mem_budget is None:
            return False
        if self._mem_breached:
            return True
        rss = self._maxrss_fn()
        telemetry.gauge("repro_process_maxrss_bytes").set(float(rss))
        if rss > self.budget.mem_budget:
            self._mem_breached = True
            self.record(
                "mem-pressure",
                detail=f"maxrss {rss} > budget {self.budget.mem_budget} bytes; "
                "supervised maps clamped to serial",
            )
        return self._mem_breached


_ACTIVE: GovernorState | None = None


def active_governor() -> GovernorState | None:
    """The installed governor, if a budgeted run is in progress."""
    return _ACTIVE


@contextmanager
def govern(
    budget: ResourceBudget | None,
    maxrss_fn: Callable[[], int] = maxrss_bytes,
) -> Iterator[GovernorState | None]:
    """Install a run governor for the duration of a budgeted run.

    A None (or empty) budget installs nothing and yields None, so CLIs
    can wrap unconditionally — un-budgeted runs stay byte-identical,
    paying one ``is None`` test at each enforcement point.
    """
    global _ACTIVE
    if budget is None or not budget.any_set:
        yield None
        return
    state = GovernorState(budget, maxrss_fn=maxrss_fn)
    previous = _ACTIVE
    _ACTIVE = state
    try:
        yield state
    finally:
        _ACTIVE = previous
