"""Stack-distance theory: analytic cache modelling.

Full-run simulation of the paper's workloads executes 10^10-10^11
instructions — far beyond pure-Python trace simulation.  The standard
shape-preserving substitute is reuse/stack-distance analysis: under LRU,
an access hits in a fully-associative cache of C lines exactly when its
*stack distance* (distinct lines touched since the previous access to
the same line) is below C.  One profile therefore yields the entire
MPKI-versus-capacity curve.

* :mod:`repro.reuse.olken` — exact stack distances from traces
  (offline wavelet-matrix dominance count, O(N log N));
* :mod:`repro.reuse.histogram` — profiles: weighted stack-distance
  distributions, composable across phases and components;
* :mod:`repro.reuse.model` — MPKI curves from profiles, plus the
  validation helpers tests use to compare against exact simulation;
* :mod:`repro.reuse.interleave` — multi-thread composition (private-
  region dilation, shared-region invariance).
"""

from repro.reuse.olken import stack_distances, COLD
from repro.reuse.histogram import ReuseProfile
from repro.reuse.model import mpki_at, mpki_curve, miss_ratio_at
from repro.reuse.interleave import dilate_private, compose_threads

__all__ = [
    "stack_distances",
    "COLD",
    "ReuseProfile",
    "mpki_at",
    "mpki_curve",
    "miss_ratio_at",
    "dilate_private",
    "compose_threads",
]
