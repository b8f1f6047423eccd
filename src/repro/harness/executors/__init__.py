"""Executor backends for supervised sweeps — where sweep points run.

:func:`~repro.harness.supervisor.supervised_map` is the one map path;
it owns what happens around a point (retry, journal, drain, report)
and hands execution to one of two backends, picked by ``--executor``:

* ``pool`` (the default) — in-process when ``jobs`` ≤ 1, otherwise
  worker processes in one local pool driven by the supervisor's pool
  loop, forked once and reused by later maps
  (:mod:`~repro.harness.executors.local`);
* ``shard`` — N independent forked worker processes, each running a
  lease-based work-stealing loop over a shared ledger
  (:mod:`~repro.harness.executors.shard`), which survives workers
  SIGKILLed at any instruction.

Coordination between shard workers is described in
:mod:`~repro.harness.executors.ledger`; the parent-side driver that
turns a ledger sweep back into an ordered result list lives in
:mod:`~repro.harness.executors.fabric`.
"""

from repro.harness.executors.base import (
    EXECUTOR_NAMES,
    FabricConfig,
    PointEvent,
    SubmittedPoint,
)
from repro.harness.executors.ledger import FabricLedger, LedgerState, PointState
from repro.harness.executors.local import LocalPoolExecutor

__all__ = [
    "EXECUTOR_NAMES",
    "FabricConfig",
    "FabricLedger",
    "LedgerState",
    "LocalPoolExecutor",
    "PointEvent",
    "PointState",
    "SubmittedPoint",
]
