"""Ablation studies for the design choices DESIGN.md calls out.

Four ablations, each isolating one modelling or platform decision:

1. **replacement policy** — Dragonhead's FPGAs "can implement different
   kinds of cache algorithms"; compare LRU (the paper's configuration)
   against tree-PLRU, FIFO, and random on real workload FSB traffic.
2. **smoothing spread** — the 40 % reuse-mass spread around each cyclic
   working set (DESIGN.md §3): without it, curves are pure steps and
   the paper's "50-60 % more misses at 32 MB going 8→16 cores" for the
   category-C workloads cannot appear.
3. **slice-resident rule** — private structures ≤ 512 KB are re-warmed
   within a DEX quantum and must not dilate; ablating the rule (dilate
   everything) inflates small-cache MPKI at high core counts.
4. **DEX quantum** — the exact-path analog of (3): the same workload
   traffic scheduled with small versus large quanta through the real
   emulator, showing interleaving-induced misses shrink as slices grow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.emulator import DragonheadConfig
from repro.harness.replay import load_or_capture, replay
from repro.harness.report import render_table
from repro.trace.cache import TraceCache, cache_key
from repro.trace.record import TraceChunk
from repro.units import MB, format_size
from repro.workloads.profiles import memory_model
from repro.workloads.registry import get_workload

POLICIES = ("lru", "plru", "fifo", "random")


@dataclass(frozen=True)
class PolicyResult:
    policy: str
    miss_ratio: float


def _policy_trace(
    workload_name: str,
    accesses: int,
    scale: float,
    trace_cache: TraceCache | None,
) -> TraceChunk:
    """The policy ablation's single-thread synthetic trace, cached."""
    if trace_cache is not None:
        key = cache_key(
            {
                "kind": "synthetic-thread-trace",
                "workload": workload_name,
                "thread": 0,
                "threads": 1,
                "accesses": accesses,
                "scale": scale,
            }
        )
        payload = trace_cache.load(key)
        if payload is not None:
            _, arrays = payload
            return TraceChunk(
                np.asarray(arrays["addresses"]),
                np.asarray(arrays["kinds"]),
                np.asarray(arrays["cores"]),
                np.asarray(arrays["pcs"]),
            )
    trace = get_workload(workload_name).synthetic_thread_trace(0, 1, accesses, scale)
    if trace_cache is not None:
        trace_cache.store(
            key,
            {"workload": workload_name, "accesses": accesses, "scale": scale},
            {
                "addresses": trace.addresses,
                "kinds": trace.kinds,
                "cores": trace.cores,
                "pcs": trace.pcs,
            },
        )
    return trace


def replacement_policy_ablation(
    workload_name: str = "FIMI",
    cache_size: int = 1 * MB,
    associativity: int = 8,
    accesses: int = 60_000,
    scale: float = 1 / 16,
    trace_cache: TraceCache | None = None,
) -> list[PolicyResult]:
    """Miss ratios of one workload's FSB traffic under each policy."""
    trace = _policy_trace(workload_name, accesses, scale, trace_cache)
    results = []
    for policy in POLICIES:
        cache = SetAssociativeCache(
            CacheConfig(
                size=cache_size,
                line_size=64,
                associativity=associativity,
                policy=policy,
                name=policy,
            )
        )
        cache.access_chunk(trace)
        results.append(PolicyResult(policy=policy, miss_ratio=cache.stats.miss_ratio))
    return results


@dataclass(frozen=True)
class SmoothingResult:
    smoothing: float
    jump_ratio: float  # SHOT 8→16 cores at a 32MB LLC


def smoothing_ablation() -> list[SmoothingResult]:
    """The Figure 5 category-C jump with and without the reuse spread."""
    model = memory_model("SHOT")
    results = []
    for smoothing in (0.0, 0.2, 0.4):
        at_8 = model.llc_mpki(32 * MB, 64, 8, smoothing=smoothing)
        at_16 = model.llc_mpki(32 * MB, 64, 16, smoothing=smoothing)
        results.append(
            SmoothingResult(smoothing=smoothing, jump_ratio=at_16 / at_8 if at_8 else 0.0)
        )
    return results


@dataclass(frozen=True)
class SliceRuleResult:
    slice_resident_bytes: float
    mpki_4mb_32c: float  # VIEWTYPE at a 4MB LLC, 32 cores


def slice_rule_ablation() -> list[SliceRuleResult]:
    """Small-cache LCMP MPKI with and without the slice-resident rule.

    With the rule off (threshold 0), every private structure dilates by
    the thread count: the per-thread L2-resident buffers of VIEWTYPE
    appear as a 6 MB aggregate and overwhelm a 4 MB LLC — traffic the
    real time-sliced platform never shows the shared cache.
    """
    model = memory_model("VIEWTYPE")
    results = []
    for threshold in (0.0, 512 * 1024.0):
        results.append(
            SliceRuleResult(
                slice_resident_bytes=threshold,
                mpki_4mb_32c=model.llc_mpki(
                    4 * MB, 64, 32, slice_resident_bytes=threshold
                ),
            )
        )
    return results


@dataclass(frozen=True)
class QuantumResult:
    quantum: int
    mpki: float


def quantum_ablation(
    cache_size: int = 1 * MB,
    cores: int = 4,
    region_bytes: int = 768 * 1024,
    passes: int = 8,
    quanta: tuple[int, ...] = (1024, 8192, 65536),
    trace_cache: TraceCache | None = None,
) -> list[QuantumResult]:
    """Exact-path MPKI of a slice-residency microbenchmark across quanta.

    Each virtual core cyclically re-scans a private region that fits
    the LLC alone but not together with its peers (4 x 768 KB against
    1 MB).  With a small DEX quantum the scans interleave finely and
    evict each other — every access misses.  Once the quantum exceeds a
    full scan, re-scans within a slice hit: the physical basis of the
    model's slice-resident rule.

    The quantum is part of the DEX schedule, so each quantum needs its
    own simulator pass; runs go through the replay engine anyway so a
    warm ``trace_cache`` skips all of them on repeat invocations.
    """
    from repro.core.softsdv import GuestWorkload
    from repro.trace.generators import Region, cyclic_scan
    from repro.trace.stream import chunk_stream

    def thread_streams(n: int):
        return [
            chunk_stream(
                cyclic_scan(
                    Region(0x1000_0000 + i * 0x1000_0000, region_bytes),
                    passes=passes,
                    stride=64,
                )
            )
            for i in range(n)
        ]

    guest = GuestWorkload("slice-residency", thread_streams)
    key_extra = {"region_bytes": region_bytes, "passes": passes}
    results = []
    for quantum in quanta:
        log, _ = load_or_capture(
            guest,
            cores,
            quantum=quantum,
            trace_cache=trace_cache,
            key_extra=key_extra,
        )
        outcome = replay(log, DragonheadConfig(cache_size=cache_size))
        results.append(QuantumResult(quantum=quantum, mpki=outcome.mpki))
    return results


def main(trace_cache: TraceCache | None = None) -> None:
    """Print all four ablation tables.

    ``trace_cache`` lets the exact-path ablations (1 and 4) reuse their
    captured traffic across invocations.
    """
    print(
        render_table(
            ["Policy", "miss ratio"],
            [
                (r.policy.upper(), f"{r.miss_ratio:.4f}")
                for r in replacement_policy_ablation(trace_cache=trace_cache)
            ],
            title="Ablation 1: replacement policy (FIMI FSB traffic, 1MB, 8-way)",
        )
    )
    print()
    print(
        render_table(
            ["Smoothing", "SHOT 8->16 core jump @32MB"],
            [(f"{r.smoothing:.1f}", f"{r.jump_ratio:.2f}x") for r in smoothing_ablation()],
            title="Ablation 2: reuse-spread smoothing (paper: ~1.5-1.6x)",
        )
    )
    print()
    print(
        render_table(
            ["Slice-resident threshold", "VIEWTYPE MPKI @4MB, 32 cores"],
            [
                (format_size(int(r.slice_resident_bytes)), f"{r.mpki_4mb_32c:.2f}")
                for r in slice_rule_ablation()
            ],
            title="Ablation 3: DEX slice-resident rule",
        )
    )
    print()
    print(
        render_table(
            ["DEX quantum", "exact-path MPKI"],
            [
                (str(r.quantum), f"{r.mpki:.2f}")
                for r in quantum_ablation(trace_cache=trace_cache)
            ],
            title="Ablation 4: DEX scheduling quantum (4x768KB private scans, 1MB LLC)",
        )
    )


if __name__ == "__main__":
    main()
