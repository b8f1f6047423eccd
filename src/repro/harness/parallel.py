"""Deterministic process-parallel execution of sweep grids.

A replay pass over N cache configurations is a map over an
embarrassingly parallel grid whose points never share state.
:func:`parallel_map` is the name :func:`repro.harness.replay.replay_map`
calls; it is a thin entry into the one map implementation,
:func:`repro.harness.supervisor.supervised_map`, so a grid runs the
same way whether or not anyone supervises it.  The output is
byte-identical to a serial run because results are assembled in item
order and every task is a pure function of its (picklable) argument
tuple.

``repro-cosim --jobs N`` and ``repro-serve --jobs N`` set the worker
count; ``jobs=None`` means serial, in-process, and ``--jobs 0`` asks
for one worker per CPU.  Worker processes fork once per process, not
once per map: a map of the same width under the same telemetry session
reuses the idle workers the previous map left
(:mod:`repro.harness.executors.local`).

Outside a :func:`~repro.harness.supervisor.supervise` context the map
runs under a fresh context with ``retries=0``: the first failing point
raises :class:`~repro.errors.SweepPointError` (``attempts=1``) naming
the item, with no backoff.  Inside one, the ambient context applies —
timeouts, retries, journaling, fault injection.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """One worker per CPU (what ``--jobs 0`` resolves to)."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None → 1 (serial), 0 → all CPUs."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return default_jobs()
    return jobs


def parallel_map(
    task: Callable[[T], R], items: Iterable[T], jobs: int | None = None
) -> list[R]:
    """Map ``task`` over ``items``, optionally across worker processes.

    Results always come back in item order.  ``task`` must be a
    module-level function and every item picklable, because both cross
    a process boundary when ``jobs`` asks for real parallelism.
    """
    # Imported here: the supervisor imports resolve_jobs from this module.
    from repro.harness.supervisor import (
        SupervisorContext,
        SupervisorPolicy,
        active_context,
        supervised_map,
    )

    context = active_context() or SupervisorContext(
        policy=SupervisorPolicy(retries=0)
    )
    return supervised_map(task, list(items), jobs=jobs, context=context)
