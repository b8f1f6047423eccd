"""Where sweep points run, and where finished ones are journaled.

:func:`~repro.harness.supervisor.supervised_map` is the one map path;
it owns what happens around a point (retry, journal, drain, report)
and runs the point in-process when ``jobs`` ≤ 1, otherwise on the local
worker pool, one lane per worker, forked once and reused by later maps
(:mod:`~repro.harness.executors.local`).  Finished points go to the
sweep journal (:mod:`~repro.harness.executors.ledger`), which
``--resume`` reads back.
"""

from repro.harness.executors.ledger import FabricLedger
from repro.harness.executors.local import LocalPoolExecutor, PointEvent

__all__ = [
    "FabricLedger",
    "LocalPoolExecutor",
    "PointEvent",
]
