"""Resource governance: budgets, graceful degradation, pressure tooling.

The governor turns three unbounded resources — disk under the trace
cache, process memory, and wall-clock time — into explicit budgets,
and turns every budget breach into a *recorded degradation* instead of
a crash.  See :mod:`repro.governor.budget` for the ambient governor,
:mod:`repro.governor.gc` for quota eviction (imported lazily by the
trace cache — import it explicitly as ``repro.governor.gc``),
:mod:`repro.governor.retry` for the shared transient-I/O policy, and
:mod:`repro.governor.fsshim` for the injectable filesystem faults the
tests use to prove the degradation paths.
"""

from repro.governor.budget import (
    GovernorState,
    ResourceBudget,
    active_governor,
    govern,
    maxrss_bytes,
)
from repro.governor.fsshim import FsFaultPlan, fault_point
from repro.governor.retry import (
    DEFAULT_RETRIES,
    TRANSIENT_ERRNOS,
    is_transient,
    retry_io,
)

__all__ = [
    "DEFAULT_RETRIES",
    "FsFaultPlan",
    "GovernorState",
    "ResourceBudget",
    "TRANSIENT_ERRNOS",
    "active_governor",
    "fault_point",
    "govern",
    "is_transient",
    "maxrss_bytes",
    "retry_io",
]
