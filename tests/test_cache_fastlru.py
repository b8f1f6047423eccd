"""Differential tests: FastLRUKernel vs LRUPolicy vs the oracle.

The fast kernel's contract is *exact* equivalence with the list-based
``LRUPolicy`` — same hits, same victims, same order, same statistics —
on any access sequence.  These tests replay identical random and
workload-shaped traces through both implementations (and, for the
single-set geometry, through the ``FullyAssociativeLRU`` oracle) and
compare every observable: per-access hits, eviction counts, full
``CacheStats`` including the per-core dictionaries, and the final
recency order of every set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.cache import CacheConfig, FullyAssociativeLRU, SetAssociativeCache
from repro.cache.fastlru import EMPTY_WAY, FastLRUKernel
from repro.cache.replacement import LRUPolicy
from repro.trace.generators import (
    Region,
    interleave_mix,
    pointer_chase,
    sequential_scan,
    uniform_random,
    zipf_random,
)
from repro.trace.record import AccessKind, TraceChunk
from repro.units import KB, MB

LINE = 64


def workload_shaped_lines(count: int, seed: int) -> np.ndarray:
    """Line numbers shaped like the paper's workloads: scans + probes."""
    rng = np.random.default_rng(seed)
    per = count // 4
    parts = [
        sequential_scan(Region(0, 4 * MB), count=per, stride=8),
        zipf_random(Region(0, 2 * MB), count=per, rng=rng),
        uniform_random(Region(0, 8 * MB), count=per, rng=rng),
        pointer_chase(Region(0, 4 * MB), count=count - 3 * per, rng=rng),
    ]
    return np.concatenate([chunk.lines(LINE) for chunk in parts])


def replay_reference(
    policy: LRUPolicy, lines: list[int], set_mask: int
) -> tuple[list[bool], int]:
    """Drive LRUPolicy one access at a time: (per-access hits, evictions)."""
    hits: list[bool] = []
    evictions = 0
    for line in lines:
        hit, victim = policy.lookup(line & set_mask, line)
        hits.append(hit)
        evictions += victim is not None
    return hits, evictions


def assert_directories_equal(kernel, reference, num_sets: int) -> None:
    """Every set's LRU→MRU order agrees between kernel and reference."""
    for set_index in range(num_sets):
        assert kernel.resident_tags(set_index) == reference.resident_tags(
            set_index
        ), f"recency order diverged in set {set_index}"


def stats_tuple(stats) -> tuple:
    return (
        stats.accesses,
        stats.hits,
        stats.misses,
        stats.reads,
        stats.writes,
        stats.read_misses,
        stats.write_misses,
        stats.evictions,
        stats.per_core_accesses,
        stats.per_core_misses,
    )


class TestExactEquivalence:
    def test_million_access_differential_vs_lrupolicy(self):
        """≥1M replayed accesses: identical hits, evictions, and order."""
        num_sets, assoc = 1024, 16
        lines = workload_shaped_lines(1_000_000, seed=11)
        assert lines.size >= 1_000_000
        kernel = FastLRUKernel(num_sets, assoc)
        reference = LRUPolicy(num_sets, assoc)
        set_mask = num_sets - 1
        # Replay in chunks so kernel state carries across batch calls,
        # the way trace streams reach the cache in production: the first
        # chunk lands on an empty kernel, the rest on resident lines.
        for chunk in np.array_split(lines, 16):
            result = kernel.lookup_batch(chunk)
            ref_hits, ref_evictions = replay_reference(
                reference, chunk.tolist(), set_mask
            )
            assert result.hits.tolist() == ref_hits
            assert result.evictions == ref_evictions
            assert_directories_equal(kernel, reference, num_sets)

    def test_cache_stats_equivalence_including_per_core(self):
        """Fast path and forced seed path agree on every counter."""
        mix = interleave_mix(
            [
                sequential_scan(Region(0, 2 * MB), count=60_000, stride=8),
                uniform_random(
                    Region(0, 4 * MB),
                    count=60_000,
                    write_fraction=0.3,
                    rng=np.random.default_rng(3),
                ),
            ],
            [0.5, 0.5],
            count=60_000,
            rng=np.random.default_rng(4),
        )
        cores = np.random.default_rng(5).integers(0, 8, size=len(mix)).astype(np.uint16)
        chunk = TraceChunk(mix.addresses, mix.kinds, cores, mix.pcs)
        config = CacheConfig(size=512 * KB, associativity=8)
        fast = SetAssociativeCache(config)
        seed = SetAssociativeCache(config)
        seed._policy = LRUPolicy(config.num_sets, config.associativity)
        fast.access_chunk(chunk)
        seed.access_chunk(chunk)
        assert stats_tuple(fast.stats) == stats_tuple(seed.stats)

    def test_single_set_matches_fully_associative_oracle(self):
        """fastlru, LRUPolicy, and the oracle agree on one-set caches."""
        trace = uniform_random(
            Region(0, 2 * MB), count=40_000, rng=np.random.default_rng(17)
        )
        size = 64 * KB
        oracle = FullyAssociativeLRU(capacity_lines=size // LINE, line_size=LINE)
        as_cache = SetAssociativeCache(CacheConfig.fully_associative(size))
        seed = SetAssociativeCache(CacheConfig.fully_associative(size))
        seed._policy = LRUPolicy(1, size // LINE)
        oracle.access_chunk(trace)
        as_cache.access_chunk(trace)
        seed.access_chunk(trace)
        assert stats_tuple(oracle.stats) == stats_tuple(as_cache.stats)
        assert stats_tuple(as_cache.stats) == stats_tuple(seed.stats)

    def test_scalar_and_batch_paths_agree(self):
        """access_line in a loop and access_chunk produce equal stats."""
        trace = zipf_random(
            Region(0, 1 * MB),
            count=20_000,
            write_fraction=0.25,
            rng=np.random.default_rng(23),
        )
        config = CacheConfig(size=128 * KB, associativity=4)
        batched = SetAssociativeCache(config)
        scalar = SetAssociativeCache(config)
        batched.access_chunk(trace)
        for address, kind, core in zip(
            trace.addresses.tolist(), trace.kinds.tolist(), trace.cores.tolist()
        ):
            scalar.access(address, AccessKind(kind), core)
        assert stats_tuple(batched.stats) == stats_tuple(scalar.stats)

    def test_consecutive_repeat_collapse_is_exact(self):
        """Stride-8 scans (8 repeats per line) hit the collapse pre-pass."""
        num_sets, assoc = 64, 4
        scan = sequential_scan(
            Region(0, 512 * KB), count=100_000, stride=8, write_fraction=0.5
        )
        lines = scan.lines(LINE)
        assert np.count_nonzero(lines[1:] == lines[:-1])  # collapse engages
        kernel = FastLRUKernel(num_sets, assoc)
        reference = LRUPolicy(num_sets, assoc)
        set_mask = num_sets - 1
        result = kernel.lookup_batch(lines)
        ref_hits, ref_evictions = replay_reference(
            reference, lines.tolist(), set_mask
        )
        assert result.hits.tolist() == ref_hits
        assert result.evictions == ref_evictions
        assert_directories_equal(kernel, reference, num_sets)

    @pytest.mark.parametrize("num_sets,assoc", [(2, 256), (1, 4096)])
    def test_large_associativity_geometry(self, num_sets, assoc):
        """The OrderedDict container (assoc > 128) is equally exact."""
        lines = uniform_random(
            Region(0, 4 * MB), count=60_000, rng=np.random.default_rng(31)
        ).lines(LINE)
        kernel = FastLRUKernel(num_sets, assoc)
        reference = LRUPolicy(num_sets, assoc)
        set_mask = num_sets - 1
        result = kernel.lookup_batch(lines)
        ref_hits, ref_evictions = replay_reference(
            reference, lines.tolist(), set_mask
        )
        assert result.hits.tolist() == ref_hits
        assert result.evictions == ref_evictions
        assert_directories_equal(kernel, reference, num_sets)


class TestReplacementPolicyInterface:
    def test_scalar_lookup_matches_lrupolicy(self):
        kernel = FastLRUKernel(4, 2)
        reference = LRUPolicy(4, 2)
        rng = np.random.default_rng(41)
        for tag in rng.integers(0, 32, size=2000).tolist():
            assert kernel.lookup(tag & 3, tag) == reference.lookup(tag & 3, tag)
        for set_index in range(4):
            assert kernel.resident_tags(set_index) == reference.resident_tags(set_index)

    def test_contains_invalidate_flush(self):
        kernel = FastLRUKernel(2, 2)
        kernel.lookup(0, 10)
        kernel.lookup(1, 11)
        assert kernel.contains(0, 10) and kernel.contains(1, 11)
        assert kernel.invalidate(0, 10)
        assert not kernel.invalidate(0, 10)
        assert not kernel.contains(0, 10)
        kernel.flush()
        assert not kernel.contains(1, 11)
        # After an invalidate, the freed way is refilled without eviction.
        kernel.lookup(0, 1)
        kernel.lookup(0, 2)
        kernel.invalidate(0, 1)
        _, victim = kernel.lookup(0, 3)
        assert victim is None
        assert kernel.resident_tags(0) == [2, 3]

    def test_timestamp_matrix_views(self):
        kernel = FastLRUKernel(2, 3)
        for tag in (100, 101, 102, 101):  # set 0: LRU order 100, 102, 101
            kernel.lookup(0, tag)
        kernel.lookup(1, 201)
        tags = kernel.tag_matrix()
        stamps = kernel.stamp_matrix()
        assert tags.shape == stamps.shape == (2, 3)
        assert tags[0].tolist() == [100, 102, 101]
        assert stamps[0].tolist() == [0, 1, 2]
        assert tags[1].tolist() == [201, EMPTY_WAY, EMPTY_WAY]
        assert stamps[1].tolist() == [0, EMPTY_WAY, EMPTY_WAY]

    def test_empty_batch(self):
        kernel = FastLRUKernel(4, 2)
        result = kernel.lookup_batch(np.empty(0, dtype=np.uint64))
        assert result.hits.size == 0
        assert result.evictions == 0
        assert result.misses == 0
