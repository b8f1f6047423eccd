"""Fault-tolerant supervised execution of sweep grids.

:func:`supervised_map` is the one way a sweep grid runs.
:func:`~repro.harness.parallel.parallel_map` delegates to it, and
``repro-cosim`` and the job server install an ambient
:class:`SupervisorContext` with :func:`supervise`.  A bare process pool
loses a whole sweep to one worker exception, one hung point, or one
``BrokenProcessPool``.  The paper's platform could not afford that
posture — a passive FPGA snooping a live bus *will* see faults — and
neither can a long ``repro-cosim`` sweep.  This module is the
harness-level counterpart of the lenient address filter: it assumes
points can fail and makes the sweep survive them.

Points run in-process (``jobs`` ≤ 1) or on the local worker pool
(:class:`~repro.harness.executors.local.LocalPoolExecutor`).  The pool
outlives the map that forked it: a map takes the process's idle pool
when its worker count and telemetry session match and forks one
otherwise, and a clean map parks it idle again, so workers fork once
per process rather than once per map.  Around them the supervisor adds

* **per-point wall-clock timeouts** — a hung point's worker is
  terminated and its lane re-forked, and only that point is retried;
* **bounded retries with exponential backoff** — transient failures
  (including injected worker crashes and hangs) are re-run up to
  ``retries`` times before the point is declared dead and the sweep
  fails with :class:`~repro.errors.SweepPointError`;
* **crash recovery** — a worker dying mid-point costs its lane a
  re-fork and charges only the point it was running;
* **a journal** — every completed point is recorded in the sweep's
  journal file (:class:`~repro.harness.executors.ledger.FabricLedger`)
  under its content key (task identity + pickled item), so
  ``--resume`` skips finished work after a crash or a Ctrl-C;
* **SIGINT-safe drain** — an interrupt terminates workers, flushes the
  journal, prints a partial-results report, and raises
  :class:`~repro.errors.SweepInterrupted` so callers can exit cleanly.

The determinism contract survives supervision: results are assembled in
item order and every task is a pure function of its argument, so a
fault-free run returns the same list serially or pooled —
byte-identical output for ``repro-cosim --jobs N``.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import (
    DeadlineExpired,
    FaultInjectionError,
    SweepInterrupted,
    SweepPointError,
)
from repro.faults.spec import FaultSpec
from repro.governor.budget import active_governor
from repro.harness.executors.ledger import FabricLedger, decode_result
from repro.harness.executors.local import LocalPoolExecutor, release_idle_pool
from repro.harness.parallel import resolve_jobs
from repro.serve.jobspec import point_content_key
from repro.telemetry import runtime as telemetry

_UNSET = object()


@dataclass(frozen=True)
class SupervisorPolicy:
    """How a supervised sweep treats misbehaving points.

    A point that exhausts its retries fails the sweep with
    :class:`SweepPointError`.

    Attributes:
        timeout: per-point wall-clock budget in seconds (None = no
            limit).  Only enforceable with real worker processes; the
            serial path documents-and-ignores it.
        retries: re-runs granted to a failing point after its first
            attempt.
        backoff_base: first retry delay in seconds; attempt ``k`` waits
            ``backoff_base * 2**(k-1)``, capped at ``backoff_cap``.
        backoff_cap: upper bound on any single backoff delay.
    """

    timeout: float | None = None
    retries: int = 2
    backoff_base: float = 0.25
    backoff_cap: float = 8.0


def point_key(task: Callable, item: Any) -> str:
    """Content key of one grid point: task identity + pickled item.

    The item is canonicalized first: pickled dicts carry their
    insertion order, so ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}``
    — the same grid point — would otherwise hash to different keys
    and ``--resume`` would re-run completed work.
    """
    return point_content_key(f"{task.__module__}.{task.__qualname__}", item)


@dataclass
class SupervisorContext:
    """Ambient supervision state shared by every map under one sweep."""

    policy: SupervisorPolicy = field(default_factory=SupervisorPolicy)
    #: The sweep's journal: completed points are skipped on resume and
    #: recorded as they finish.
    journal: FabricLedger | None = None
    fault_spec: FaultSpec | None = None
    #: Aggregated event counters across all supervised maps:
    #: journal-skip, worker-crash, worker-crash-injected,
    #: worker-hang-injected, point-timeout, point-retry and
    #: pool-respawn.
    counts: dict[str, int] = field(default_factory=dict)
    completed: int = 0
    total: int = 0
    #: When this sweep's supervision began (monotonic); the base of the
    #: progress line's rate and ETA estimates.
    started: float = field(default_factory=time.monotonic)

    def count(self, kind: str, n: int = 1) -> None:
        if n:
            self.counts[kind] = self.counts.get(kind, 0) + n
            telemetry.counter("repro_supervisor_events_total", event=kind).inc(n)

    def describe(self) -> str:
        """One-line event summary (empty when nothing noteworthy happened)."""
        return " ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))

    def progress(self) -> None:
        """Emit one progress/ETA line to stderr (telemetry runs only).

        Byte-identity of telemetry-off runs is preserved twice over:
        nothing prints unless telemetry is enabled, and even then the
        line goes to stderr, which the CI smoke diffs never capture.
        """
        if not telemetry.enabled() or self.total <= 0:
            return
        elapsed = time.monotonic() - self.started
        rate = self.completed / elapsed if elapsed > 0 else 0.0
        remaining = self.total - self.completed
        eta = remaining / rate if rate > 0 else float("inf")
        print(
            f"sweep progress: {self.completed}/{self.total} points "
            f"({100.0 * self.completed / self.total:.0f}%), "
            f"elapsed {elapsed:.1f}s, ETA {eta:.1f}s",
            file=sys.stderr,
        )


_ACTIVE: SupervisorContext | None = None


def active_context() -> SupervisorContext | None:
    """The installed supervisor context, if a sweep is being supervised."""
    return _ACTIVE


@contextmanager
def supervise(
    policy: SupervisorPolicy | None = None,
    journal: FabricLedger | None = None,
    fault_spec: FaultSpec | None = None,
) -> Iterator[SupervisorContext]:
    """Install a supervisor context for the duration of a sweep.

    While active, every :func:`repro.harness.parallel.parallel_map` call
    uses this context instead of a fresh retries=0 one, so the replay
    passes under a ``repro-cosim`` sweep need no new parameters to
    become fault-tolerant.
    """
    global _ACTIVE
    context = SupervisorContext(
        policy=policy or SupervisorPolicy(),
        journal=journal,
        fault_spec=fault_spec,
    )
    previous = _ACTIVE
    _ACTIVE = context
    try:
        yield context
    finally:
        _ACTIVE = previous


# -- the supervised map --------------------------------------------------


@dataclass
class _Flight:
    """Bookkeeping for one in-flight point."""

    index: int
    deadline: float | None
    #: Submission time (monotonic); the journal's ``wall_time_s`` for a
    #: pooled point is measured from here, so it includes queue-to-start
    #: latency inside the worker but not backoff waits between attempts.
    submitted: float = 0.0


def supervised_map(
    task: Callable,
    items: list,
    jobs: int | None = None,
    context: SupervisorContext | None = None,
) -> list:
    """Map ``task`` over ``items`` under supervision; ordered results.

    A fault-free run returns the same list on every route.  Under
    faults, points are retried with backoff, a hung or crashed worker
    costs a re-fork of its lane and a retry of only its own point,
    completed points are journaled as they finish, and SIGINT drains to
    a partial report plus :class:`SweepInterrupted`.
    """
    context = context or active_context() or SupervisorContext()
    policy = context.policy
    work = list(items)
    n = len(work)
    context.total += n
    results: list[Any] = [_UNSET] * n

    need_keys = context.journal is not None or context.fault_spec is not None
    keys = [point_key(task, item) for item in work] if need_keys else None

    completed = context.journal.completed() if context.journal is not None else {}
    pending: list[int] = []
    for i in range(n):
        if completed and keys[i] in completed:
            results[i] = decode_result(completed[keys[i]])
            context.count("journal-skip")
            context.completed += 1
        else:
            pending.append(i)
    if not pending:
        return results

    workers = min(resolve_jobs(jobs), len(pending))
    governor = active_governor()
    if workers > 1 and governor is not None and governor.memory_pressure():
        # Worker processes are the multiplier on resident memory; under
        # a breached --mem-budget new maps run serial and the idle
        # pool's workers go too (the latch in the governor keeps this
        # in force for the rest of the run, and the first breach left a
        # degradation record).
        workers = 1
        release_idle_pool()
    if workers <= 1:
        _run_serial(task, work, pending, keys, results, context)
    else:
        _run_pool(task, work, pending, keys, results, context, workers)
    return results


def _point_fault(
    context: SupervisorContext, keys: list[str] | None, index: int, attempt: int
) -> str | None:
    """Planned harness fault for one attempt (first attempt only)."""
    if context.fault_spec is None or attempt > 0:
        return None
    fault = context.fault_spec.harness_fault(keys[index])
    if fault is not None:
        context.count(f"worker-{fault}-injected")
    return fault


def _finish(
    context: SupervisorContext,
    keys: list[str] | None,
    results: list,
    index: int,
    value: Any,
    wall_time_s: float | None = None,
    attempts: int = 1,
) -> None:
    results[index] = value
    context.completed += 1
    if wall_time_s is not None:
        telemetry.histogram("repro_sweep_point_seconds").observe(wall_time_s)
    if context.journal is not None:
        context.journal.record(
            keys[index], value, wall_time_s=wall_time_s, attempts=attempts
        )
    context.progress()


def _backoff(policy: SupervisorPolicy, attempt: int) -> float:
    return min(policy.backoff_cap, policy.backoff_base * (2 ** max(0, attempt - 1)))


def check_deadline(
    context: SupervisorContext,
    results: list,
    cancel: Callable[[], None] | None = None,
) -> None:
    """Drain the sweep if the run-level ``--deadline`` has expired.

    The deadline path is SIGINT with a different exception type: cancel
    in-flight work, print the partial-results report (the journal keeps
    every completed point), raise :class:`~repro.errors.DeadlineExpired`
    — a :class:`SweepInterrupted` subclass, so everything that already
    survives Ctrl-C survives deadline expiry for free.  Checked between
    serial points and per pool-poll cycle; a point already running is
    never cut down mid-flight (the per-point ``timeout`` owns that), so
    expiry costs at most one point's latency.
    """
    governor = active_governor()
    if governor is None or not governor.deadline_expired():
        return
    if cancel is not None:
        cancel()
    governor.note_deadline(context.completed, context.total)
    _drain_report(context, results, reason="deadline expired")
    raise DeadlineExpired(context.completed, context.total)


def _deadline_capped(wait_for: float | None) -> float | None:
    """Cap a poll timeout so the loop wakes when the deadline lands."""
    governor = active_governor()
    if governor is None:
        return wait_for
    remaining = governor.deadline_remaining()
    if remaining is None:
        return wait_for
    capped = remaining if wait_for is None else min(wait_for, remaining)
    return max(0.05, capped)


def _run_serial(
    task: Callable,
    work: list,
    pending: list[int],
    keys: list[str] | None,
    results: list,
    context: SupervisorContext,
) -> None:
    """In-process path (``jobs`` ≤ 1): retries apply, timeouts cannot.

    An injected crash becomes :class:`FaultInjectionError` here — with
    no worker process to sacrifice, the fault degenerates to an
    exception, which exercises the same retry path.
    """
    policy = context.policy
    for i in pending:
        check_deadline(context, results)
        attempt = 0
        while True:
            fault = _point_fault(context, keys, i, attempt)
            try:
                if fault == "crash":
                    raise FaultInjectionError("injected worker crash (serial mode)")
                if fault == "hang":
                    time.sleep(context.fault_spec.hang_seconds)
                begin = time.perf_counter()
                value = task(work[i])
                wall = time.perf_counter() - begin
                _finish(
                    context,
                    keys,
                    results,
                    i,
                    value,
                    wall_time_s=wall,
                    attempts=attempt + 1,
                )
                break
            except KeyboardInterrupt:
                _drain_report(context, results)
                raise SweepInterrupted(context.completed, context.total) from None
            except Exception as error:
                attempt += 1
                if attempt > policy.retries:
                    raise SweepPointError(work[i], error, attempts=attempt) from error
                context.count("point-retry")
                time.sleep(_backoff(policy, attempt))


def _run_pool(
    task: Callable,
    work: list,
    pending: list[int],
    keys: list[str] | None,
    results: list,
    context: SupervisorContext,
    workers: int,
) -> None:
    """The supervised pool loop: one point in flight per worker lane.

    The backend takes the idle lanes or forks new ones; a clean map
    parks them for the next map, and any other exit drops them.
    """
    policy = context.policy
    attempts = {i: 0 for i in pending}
    # (index, not-before) — backoff is enforced by the ready time.
    queue: deque[tuple[int, float]] = deque((i, 0.0) for i in pending)
    inflight: dict[Any, _Flight] = {}
    backend = LocalPoolExecutor(workers)
    hang_seconds = context.fault_spec.hang_seconds if context.fault_spec else 0.0

    def submit_ready(now: float) -> None:
        while queue and len(inflight) < workers:
            index, ready_at = queue[0]
            if ready_at > now:
                break
            queue.popleft()
            fault = _point_fault(context, keys, index, attempts[index])
            handle = backend.submit(task, work[index], fault, hang_seconds)
            deadline = now + policy.timeout if policy.timeout else None
            inflight[handle] = _Flight(
                index=index, deadline=deadline, submitted=time.monotonic()
            )

    def on_failure(index: int, cause: BaseException, kind: str) -> None:
        """Count a failed attempt; requeue with backoff or fail the sweep."""
        attempts[index] += 1
        if attempts[index] > policy.retries:
            raise SweepPointError(
                work[index], cause, attempts=attempts[index]
            ) from cause
        context.count(kind)
        queue.append((index, time.monotonic() + _backoff(policy, attempts[index])))

    try:
        while queue or inflight:
            check_deadline(context, results, cancel=backend.cancel)
            now = time.monotonic()
            submit_ready(now)
            if not inflight:
                # Nothing running: we are waiting out a backoff window.
                pause = max(0.0, min(at for _, at in queue) - now)
                capped = _deadline_capped(pause)
                time.sleep(pause if capped is None else min(pause, capped))
                continue
            wait_for = _deadline_capped(_next_wakeup(policy, queue, inflight, now))
            for event in backend.poll(wait_for):
                flight = inflight.pop(event.handle)
                if event.kind == "done":
                    _finish(
                        context,
                        keys,
                        results,
                        flight.index,
                        event.value,
                        wall_time_s=time.monotonic() - flight.submitted,
                        attempts=attempts[flight.index] + 1,
                    )
                elif event.kind == "crash":
                    # The backend has already re-forked the dead lane.
                    context.count("pool-respawn")
                    on_failure(flight.index, event.error, "worker-crash")
                else:
                    on_failure(flight.index, event.error, "point-retry")
            _reap_hung(context, inflight, backend, on_failure)
    except KeyboardInterrupt:
        backend.cancel()
        _drain_report(context, results)
        raise SweepInterrupted(context.completed, context.total) from None
    except BaseException:
        # A point out of retries, an expired deadline or a bug: the
        # lanes may still be running points, so they are dropped, not
        # parked.
        backend.cancel()
        raise
    backend.close()


def _next_wakeup(
    policy: SupervisorPolicy,
    queue: deque,
    inflight: dict,
    now: float,
) -> float | None:
    """How long the wait may block: next deadline or next backoff expiry."""
    horizons = [
        flight.deadline - now
        for flight in inflight.values()
        if flight.deadline is not None
    ]
    if queue:
        horizons.append(queue[0][1] - now)
    if not horizons:
        return None
    return max(0.05, min(horizons))


def _reap_hung(context, inflight, backend, on_failure) -> None:
    """Kill the lane of every point past its deadline; charge the point."""
    now = time.monotonic()
    for future, flight in list(inflight.items()):
        if flight.deadline is None or now <= flight.deadline or future.done():
            continue
        del inflight[future]
        backend.kill(future)
        context.count("pool-respawn")
        on_failure(
            flight.index,
            FaultInjectionError(
                f"point exceeded its {context.policy.timeout:.1f}s wall-clock budget"
            ),
            "point-timeout",
        )


def _drain_report(
    context: SupervisorContext, results: list, reason: str = "interrupted"
) -> None:
    """The drain report (SIGINT or deadline expiry), written to stderr."""
    done = sum(1 for value in results if value is not _UNSET)
    print(
        f"\nsweep {reason}: {done}/{len(results)} points of the current "
        f"grid completed ({context.completed}/{context.total} overall)",
        file=sys.stderr,
    )
    if context.counts:
        print(f"  events: {context.describe()}", file=sys.stderr)
    if context.journal is not None:
        print(
            f"  journal: {context.journal.path} — re-run with --resume to "
            "skip completed points",
            file=sys.stderr,
        )
