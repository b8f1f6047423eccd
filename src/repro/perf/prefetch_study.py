"""The Figure 8 experiment: hardware-prefetch speedups.

Section 4.4 measures each workload on a 16-way Xeon with the stride
prefetcher on versus off, in single-threaded and 16-threaded mode, and
finds (a) everything improves, up to ~33%; (b) most workloads improve
*more* in parallel mode (more streams for the prefetcher, bandwidth to
spare); (c) SNP and MDS improve *less* in parallel mode because their
high miss rates saturate the bus, starving the prefetcher.

The model composes three calibrated pieces:

* **coverage** — the fraction of misses a stride prefetcher can target,
  from each memory model's component mixture (each component carries a
  ``prefetch_fraction``: 1 for strided streams, 0 for pointer chases,
  intermediate for semi-regular structures);
* **effectiveness** — a timeliness factor for covered misses, boosted
  in parallel mode by the extra concurrent streams the prefetcher can
  track, and throttled by the shared-bus headroom from
  :mod:`repro.perf.bandwidth`-style contention (per-instruction miss
  bytes times thread count against a fixed bus budget);
* **CPI stack** — covered stalls are removed from the Table 2 CPI
  stack; the speedup is the CPI ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.cpi import CpiStack, cpi_stack
from repro.units import KB
from repro.workloads.models import WorkloadMemoryModel
from repro.workloads.profiles import memory_model

#: Fraction of a covered miss's latency the prefetcher actually hides
#: (timeliness/accuracy of a stride prefetcher in steady state).
TIMELINESS = 0.40

#: Extra streams visible in parallel mode let the prefetcher cover more
#: concurrent sequences ("multiple data streams recognized by the
#: prefetcher", Section 4.4).
PARALLEL_STREAM_BONUS = 1.5

#: Bus-contention scale: aggregate DL2 MPKI (threads x per-thread MPKI)
#: at which demand misses fully consume the shared bus.
CONTENTION_CAPACITY_MPKI = 220.0
HEADROOM_FLOOR = 0.05

#: Stride-prefetchability of the non-stream patterns, by component-name
#: suffix conventions in profiles.py.  Semi-regular structures (FP-tree
#: levels allocated in order, DP charts, label arrays) are partially
#: detectable; true scatter (sparse index lookups) is not.
PARTIAL_PREFETCHABILITY: dict[str, float] = {
    "fimi-tree": 0.55,
    "fimi-fresh": 0.30,
    "fimi-l2": 0.45,
    "fimi-private": 0.30,
    "rsearch-l2": 0.50,
    "rsearch-chart": 0.50,
    "rsearch-fresh": 0.30,
    "view-labels": 0.40,
    "view-l2": 0.50,
    "svm-alpha": 0.30,
    "snp-index": 0.20,
    "snp-l2": 0.20,
    "mds-index": 0.00,
    "mds-l2": 0.15,
    "plsa-scatter": 0.00,
    "plsa-fresh": 0.30,
    "shot-hist": 0.40,
}


def component_prefetch_fraction(name: str, pattern: str) -> float:
    """How much of a component's miss traffic a stride prefetcher covers."""
    if pattern in ("cyclic", "stream"):
        return 1.0
    return PARTIAL_PREFETCHABILITY.get(name, 0.0)


def coverage_at(model: WorkloadMemoryModel, cache_size: int, threads: int = 1) -> float:
    """Prefetchable fraction of the miss traffic at ``cache_size``."""
    capacity_lines = cache_size / 64
    covered = 0.0
    total = 0.0
    for component in model.components:
        miss = component.profile(64, threads).miss_rate(capacity_lines)
        total += miss
        covered += miss * component_prefetch_fraction(component.name, component.pattern)
    return covered / total if total else 0.0


def contention_headroom(dl2_mpki: float, threads: int) -> float:
    """Bus bandwidth fraction left for prefetches (see module docs)."""
    utilization = threads * dl2_mpki / CONTENTION_CAPACITY_MPKI
    return max(HEADROOM_FLOOR, 1.0 - utilization)


@dataclass(frozen=True)
class PrefetchGain:
    """Prefetch speedup of one workload in one mode."""

    workload: str
    threads: int
    coverage_memory: float
    coverage_l2: float
    headroom: float
    effectiveness: float
    cpi_off: float
    cpi_on: float

    @property
    def speedup_percent(self) -> float:
        """Percentage performance gain with the prefetcher enabled."""
        return 100.0 * (self.cpi_off / self.cpi_on - 1.0)


def prefetch_gain(workload: str, threads: int = 1) -> PrefetchGain:
    """Model the Figure 8 speedup of ``workload`` at ``threads`` threads."""
    model = memory_model(workload)
    dl1 = model.dl1_mpki()
    dl2 = model.dl2_mpki()
    stack: CpiStack = cpi_stack(workload, dl1, dl2)
    coverage_memory = coverage_at(model, 512 * KB, 1)
    coverage_l2 = coverage_at(model, 8 * KB, 1)
    headroom = contention_headroom(dl2, threads)
    bonus = PARALLEL_STREAM_BONUS if threads > 1 else 1.0
    effectiveness = TIMELINESS * bonus * headroom
    cpi_on = stack.base + stack.exposure * (
        stack.l2_stall * (1.0 - min(0.95, coverage_l2 * effectiveness))
        + stack.memory_stall * (1.0 - min(0.95, coverage_memory * effectiveness))
    )
    return PrefetchGain(
        workload=workload,
        threads=threads,
        coverage_memory=coverage_memory,
        coverage_l2=coverage_l2,
        headroom=headroom,
        effectiveness=effectiveness,
        cpi_off=stack.total,
        cpi_on=cpi_on,
    )


def measured_coverage(
    workload: str,
    cores: int = 4,
    cache_size: int = 1024 * KB,
    degree: int = 2,
    trace_cache=None,
) -> tuple[float, float]:
    """Exact-path (coverage, accuracy) of the stride prefetcher.

    The model's ``coverage_at`` is an analytic projection; this runs
    the workload's instrumented kernel once through the replay engine
    (:mod:`repro.harness.replay`) and feeds the captured, AF-filtered,
    PC-tagged transaction stream to the real reference-prediction-table
    prefetcher wrapped around a live cache — the measured counterpart
    Figure 8's calibration leans on.  With a warm ``trace_cache`` the
    kernel never re-runs.
    """
    from repro.cache.cache import CacheConfig, SetAssociativeCache
    from repro.cache.prefetch import PrefetchingCache, StridePrefetcher
    from repro.harness.replay import load_or_capture
    from repro.workloads.registry import get_workload

    log, _ = load_or_capture(
        get_workload(workload).kernel_guest(),
        cores,
        trace_cache=trace_cache,
        key_extra={"source": "kernel"},
    )
    prefetching = PrefetchingCache(
        SetAssociativeCache(CacheConfig(size=cache_size)),
        StridePrefetcher(degree=degree),
    )
    prefetching.access_chunk(log.to_chunk())
    return prefetching.coverage, prefetching.prefetcher.stats.accuracy


def prefetch_study(
    threads_parallel: int = 16,
) -> dict[str, tuple[PrefetchGain, PrefetchGain]]:
    """Serial and parallel prefetch gains for every workload (Figure 8)."""
    from repro.workloads.profiles import WORKLOAD_NAMES

    return {
        name: (prefetch_gain(name, 1), prefetch_gain(name, threads_parallel))
        for name in WORKLOAD_NAMES
    }
