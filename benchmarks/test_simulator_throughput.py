"""Benchmarks: raw throughput of the simulation substrates.

Not a paper exhibit — these measure the engine itself (cache simulation
rate, stack-distance analysis rate, co-simulation end-to-end rate), the
numbers a user sizing an experiment needs.
"""

import time

import numpy as np

from repro.cache.cache import CacheConfig, FullyAssociativeLRU, SetAssociativeCache
from repro.cache.emulator import DragonheadConfig
from repro.cache.replacement import LRUPolicy
from repro.core.cosim import CoSimPlatform
from repro.core.softsdv import GuestWorkload
from repro.reuse.olken import stack_distances
from repro.trace.generators import (
    Region,
    cyclic_scan,
    pointer_chase,
    sequential_scan,
    uniform_random,
    zipf_random,
)
from repro.trace.record import TraceChunk
from repro.trace.stream import chunk_stream
from repro.units import KB, MB

TRACE = uniform_random(
    Region(0, 8 * MB), count=50_000, rng=np.random.default_rng(99)
)

# A chunk-per-pattern stream shaped like the paper's workload models
# (repro.workloads.profiles): mostly stride-8 streaming and cyclic
# scans, with random probing and pointer chasing minorities.  Chunks
# come one pattern at a time, the way per-thread DEX slices reach the
# emulator, not statistically interleaved per access.
WORKLOAD_CHUNKS = [
    sequential_scan(Region(0, 4 * MB), count=50_000, stride=8),
    cyclic_scan(Region(0, 256 * KB), passes=2, stride=8),
    sequential_scan(Region(0, 512 * KB), count=50_000, stride=8, write_fraction=0.25),
    zipf_random(Region(0, 2 * MB), count=50_000, rng=np.random.default_rng(8)),
    uniform_random(Region(0, 8 * MB), count=50_000, rng=np.random.default_rng(7)),
    pointer_chase(Region(0, 4 * MB), count=50_000, rng=np.random.default_rng(9)),
]


def _replay_workload_chunks(force_seed_path: bool) -> tuple[float, "SetAssociativeCache"]:
    cache = SetAssociativeCache(CacheConfig(size=1 * MB, associativity=16))
    if force_seed_path:
        # The pre-fastlru configuration: list-based LRUPolicy driven by
        # the generic per-access loop.
        cache._policy = LRUPolicy(cache.config.num_sets, cache.config.associativity)
    start = time.perf_counter()
    for chunk in WORKLOAD_CHUNKS:
        cache.access_chunk(chunk)
    return time.perf_counter() - start, cache


def test_set_associative_cache_throughput(benchmark):
    def run():
        cache = SetAssociativeCache(CacheConfig(size=1 * MB, associativity=16))
        cache.access_chunk(TRACE)
        return cache.stats.misses

    misses = benchmark(run)
    assert misses > 0


def test_workload_chunk_throughput(benchmark):
    def run():
        _, cache = _replay_workload_chunks(force_seed_path=False)
        return cache.stats.misses

    misses = benchmark(run)
    assert misses > 0


def test_chunked_lru_speedup_over_seed_path():
    """The fastlru acceptance bar: ≥5× over the per-access seed path.

    Both paths replay the same workload-shaped chunk stream; best-of-3
    timings keep scheduler noise out of the ratio.  The two caches must
    also agree exactly — the speedup is only meaningful if the kernel
    is a drop-in.
    """
    fast_time, fast_cache = min(
        (_replay_workload_chunks(force_seed_path=False) for _ in range(3)),
        key=lambda pair: pair[0],
    )
    seed_time, seed_cache = min(
        (_replay_workload_chunks(force_seed_path=True) for _ in range(3)),
        key=lambda pair: pair[0],
    )
    fast, seed = fast_cache.stats, seed_cache.stats
    assert (fast.hits, fast.misses, fast.evictions) == (
        seed.hits,
        seed.misses,
        seed.evictions,
    )
    speedup = seed_time / fast_time
    assert speedup >= 5.0, f"chunked LRU speedup {speedup:.2f}x < 5x"


def test_fully_associative_lru_throughput(benchmark):
    def run():
        cache = FullyAssociativeLRU(capacity_lines=16384)
        cache.access_chunk(TRACE)
        return cache.stats.misses

    misses = benchmark(run)
    assert misses > 0


def test_stack_distance_throughput(benchmark):
    distances = benchmark(stack_distances, TRACE[:20000], 64)
    assert len(distances) == 20000


class _SeedFenwick:
    """The pre-optimization list-based Fenwick tree, kept as the
    reference point for the stack-distance throughput floor."""

    __slots__ = ("tree", "size")

    def __init__(self, size: int) -> None:
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        tree = self.tree
        while i <= self.size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        i = index + 1
        total = 0
        tree = self.tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


def _seed_stack_distances(chunk, line_size=64):
    """The seed implementation: dict last-use probe plus two prefix
    sums and two point updates per access."""
    from repro.reuse.olken import COLD

    lines = chunk.lines(line_size)
    n = len(lines)
    result = np.empty(n, dtype=np.int64)
    fenwick = _SeedFenwick(n)
    last_time: dict[int, int] = {}
    for t in range(n):
        line = int(lines[t])
        previous = last_time.get(line)
        if previous is None:
            result[t] = COLD
        else:
            result[t] = fenwick.prefix_sum(t - 1) - fenwick.prefix_sum(previous)
            fenwick.add(previous, -1)
        fenwick.add(t, +1)
        last_time[line] = t
    return result


def test_stack_distance_speedup_over_seed_path(bench_record):
    """The Olken-optimization floor: ≥4x over the seed path.

    The seed path walks a Fenwick tree in Python once per access.  The
    current path has no per-access Python code: one stable argsort
    finds every previous occurrence, and a wavelet matrix counts every
    distance at once, one numpy rank step per bit of the trace length.
    It must return bit-identical distances, and do so much faster on a
    reuse-heavy trace; the ~10x typically measured is asserted at 4x to
    keep the floor loaded-machine-safe.
    """
    trace = TraceChunk.concatenate(
        [
            cyclic_scan(Region(0, 2 * MB), passes=2, stride=8)[:40_000],
            uniform_random(Region(0, 4 * MB), count=40_000, rng=np.random.default_rng(5)),
        ]
    )
    fast = stack_distances(trace, 64)
    assert np.array_equal(fast, _seed_stack_distances(trace, 64))
    fast_time = min(
        _timed(stack_distances, trace, 64) for _ in range(3)
    )
    seed_time = min(
        _timed(_seed_stack_distances, trace, 64) for _ in range(3)
    )
    speedup = seed_time / fast_time
    bench_record(
        "olken",
        accesses=len(trace),
        accesses_per_second=round(len(trace) / fast_time),
        speedup_over_seed=round(speedup, 2),
    )
    assert speedup >= 4.0, f"stack-distance speedup {speedup:.2f}x < 4x"


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_cosim_end_to_end_throughput(benchmark):
    def thread_streams(n):
        return [
            chunk_stream(
                cyclic_scan(
                    Region(0x1000_0000 + i * 0x100_0000, 256 * KB),
                    passes=2,
                    stride=64,
                )
            )
            for i in range(n)
        ]

    guest = GuestWorkload("bench", thread_streams)

    def run():
        platform = CoSimPlatform(DragonheadConfig(cache_size=1 * MB))
        return platform.run(guest, cores=4)

    result = benchmark(run)
    assert result.accesses == 4 * 4096 * 2
