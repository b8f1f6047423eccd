"""Injectable filesystem faults: seeded ENOSPC/EIO at the write sites.

The tests need to *prove* the degradation paths — evict-and-retry on
ENOSPC, bounded retry on EIO, cache-off as the final fallback — and
proving them requires failures on demand.  Real disks fail rarely and
unreproducibly; this shim fails deterministically.

Every durable write site in the tree calls :func:`fault_point` with a
site label before touching the filesystem::

    fault_point("trace-cache.store")

With no plan installed that call is one global ``is None`` test.  With
a plan installed it draws one decision from a SHA-256-derived stream
keyed by ``(seed, site, per-site call index)`` — the same derivation
discipline as :meth:`repro.faults.spec.FaultSpec.rng` — and raises a
real ``OSError(ENOSPC)`` or ``OSError(EIO)`` when the draw says so.
Same seed, same faults at the same calls, regardless of timing.

Plans install in-process only (:func:`install`).  ``limit`` caps the
total faults delivered, so a shimmed run always terminates; ``sites``
restricts the blast radius.
"""

from __future__ import annotations

import errno
import hashlib
from dataclasses import dataclass

from repro.errors import FaultInjectionError

#: Site labels wired into the tree; :func:`fault_point` accepts any
#: string, but the known set keeps plan ``sites=`` filters honest.
KNOWN_SITES = frozenset(
    {
        "trace-cache.store",
        "trace-cache.load",
        "ledger.append",
        "telemetry.emit",
        "telemetry.prometheus",
    }
)


@dataclass(frozen=True)
class FsFaultPlan:
    """A filesystem fault plan.

    Attributes:
        seed: anchor of every decision stream.
        enospc: per-call probability of ``OSError(ENOSPC)``.
        eio: per-call probability of ``OSError(EIO)``.
        limit: total faults to deliver before the shim goes quiet
            (None = unbounded).
        sites: site labels the plan applies to (None = all).
    """

    seed: int = 0
    enospc: float = 0.0
    eio: float = 0.0
    limit: int | None = None
    sites: frozenset[str] | None = None

    def __post_init__(self) -> None:
        for name in ("enospc", "eio"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(
                    f"fs fault rate {name} must be in [0, 1], got {rate}"
                )
        if self.limit is not None and self.limit < 0:
            raise FaultInjectionError(
                f"fs fault limit must be non-negative, got {self.limit}"
            )
        if self.sites is not None:
            unknown = self.sites - KNOWN_SITES
            if unknown:
                raise FaultInjectionError(
                    f"unknown fs fault site(s): {sorted(unknown)}; "
                    f"known sites: {sorted(KNOWN_SITES)}"
                )


class _ShimState:
    """Mutable per-install state: per-site call counters, delivery tally."""

    def __init__(self, plan: FsFaultPlan) -> None:
        self.plan = plan
        self.calls: dict[str, int] = {}
        self.delivered: list[tuple[str, str]] = []  # (site, kind)


_state: _ShimState | None = None


def install(plan: FsFaultPlan) -> None:
    """Arm the shim with a plan (replacing any previous one)."""
    global _state
    _state = _ShimState(plan)


def uninstall() -> None:
    """Disarm the shim; :func:`fault_point` returns to the no-op path."""
    global _state
    _state = None


def delivered() -> list[tuple[str, str]]:
    """The ``(site, kind)`` faults delivered since the last install."""
    return [] if _state is None else list(_state.delivered)


def _draw(plan: FsFaultPlan, site: str, index: int) -> float:
    """One uniform [0, 1) decision for (seed, site, call index).

    Derived by SHA-256 exactly like the bus fault channels — no global
    RNG state, so worker count and call interleaving cannot change
    which call faults.
    """
    digest = hashlib.sha256(
        f"{plan.seed}\x1f{site}\x1f{index}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def fault_point(site: str) -> None:
    """A durable write is about to happen at ``site``; maybe fail it.

    Raises ``OSError(ENOSPC)`` or ``OSError(EIO)`` per the installed
    plan; returns silently otherwise.  The disarmed fast path is one
    module-global comparison.
    """
    state = _state
    if state is None:
        return
    plan = state.plan
    if plan.sites is not None and site not in plan.sites:
        return
    if plan.limit is not None and len(state.delivered) >= plan.limit:
        return
    index = state.calls.get(site, 0)
    state.calls[site] = index + 1
    draw = _draw(plan, site, index)
    if draw < plan.enospc:
        state.delivered.append((site, "enospc"))
        raise OSError(errno.ENOSPC, f"injected ENOSPC at {site}")
    if draw < plan.enospc + plan.eio:
        state.delivered.append((site, "eio"))
        raise OSError(errno.EIO, f"injected EIO at {site}")
