"""Importable sweep tasks for the tests.

Pool workers unpickle each ``(task, item)`` pair they run, so a task
must live in an importable module — a function defined in
``__main__`` pickles by reference to a module the worker cannot
resolve.  These tasks are module-level so tests can drive real
multi-process sweeps through them.  Both are pure functions of their
items, so a re-run after a crash or a resume reproduces the result
byte-for-byte.
"""

from __future__ import annotations

import time


def model_mpki_point(item: tuple[str, int, int, int]) -> float:
    """One analytic-model grid point: (workload, threads, cache, line).

    Returns the shared-LLC MPKI (the paper's Figure 4-6 y-axis) from
    the calibrated memory model, in milliseconds, so a test can afford
    many points.
    """
    from repro.workloads.profiles import memory_model

    name, threads, cache_size, line_size = item
    return memory_model(name).llc_mpki(cache_size, line_size, threads)


def slow_mpki_point(item: tuple[str, int, int, int]) -> float:
    """A model point padded to ~100 ms of wall time.

    Drain and deadline runs need points that are reliably *in flight*
    when the run is stopped; a microsecond task would finish between
    the decision and the stop.
    """
    time.sleep(0.1)
    return model_mpki_point(item)
