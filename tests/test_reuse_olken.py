"""Tests for exact stack-distance computation."""

import numpy as np
import pytest

from repro.cache.cache import FullyAssociativeLRU
from repro.harness.replay import capture_replay_log
from repro.reuse.olken import (
    COLD,
    miss_count,
    miss_curve,
    previous_occurrences,
    stack_distances,
)
from repro.trace.generators import Region, cyclic_scan, uniform_random, zipf_random
from repro.trace.record import TraceChunk
from repro.workloads.registry import get_workload


def naive_stack_distances(lines: list[int]) -> list[int]:
    """Brute-force reference: distinct lines since the previous touch."""
    result = []
    for t, line in enumerate(lines):
        previous = None
        for s in range(t - 1, -1, -1):
            if lines[s] == line:
                previous = s
                break
        if previous is None:
            result.append(COLD)
        else:
            result.append(len(set(lines[previous + 1 : t])))
    return result


class TestStackDistances:
    def test_simple_sequence(self):
        # lines: a b a c b a
        chunk = TraceChunk([0, 64, 0, 128, 64, 0])
        distances = list(stack_distances(chunk, 64))
        assert distances == [COLD, COLD, 1, COLD, 2, 2]

    def test_matches_naive_on_random(self):
        chunk = uniform_random(
            Region(0, 2048), count=300, rng=np.random.default_rng(3)
        )
        lines = [int(l) for l in chunk.lines(64)]
        assert list(stack_distances(chunk, 64)) == naive_stack_distances(lines)

    def test_matches_naive_on_zipf(self):
        chunk = zipf_random(
            Region(0, 8192), count=400, granule=64, rng=np.random.default_rng(9)
        )
        lines = [int(l) for l in chunk.lines(64)]
        assert list(stack_distances(chunk, 64)) == naive_stack_distances(lines)

    def test_cyclic_scan_distance_is_footprint(self):
        chunk = cyclic_scan(Region(0, 4096), passes=3, stride=64)
        distances = stack_distances(chunk, 64)
        footprint = 4096 // 64
        warm = distances[footprint:]
        assert set(warm.tolist()) == {footprint - 1}

    def test_empty(self):
        assert len(stack_distances(TraceChunk.empty())) == 0


def _distances(lines: list[int]) -> list[int]:
    return stack_distances(TraceChunk([line * 64 for line in lines]), 64).tolist()


class TestEdgeCases:
    """The wavelet count against the brute-force reference where it is
    most likely to slip: degenerate streams and level-count boundaries."""

    @pytest.mark.parametrize(
        "lines",
        [
            [7],
            list(range(50)),
            [3] * 50,
            [1, 2] * 25,
            list(range(40)) * 3,
        ],
        ids=["one-access", "all-cold", "one-line", "alternating", "cyclic-scan"],
    )
    def test_degenerate_streams(self, lines):
        assert _distances(lines) == naive_stack_distances(lines)

    @pytest.mark.parametrize("n", [255, 256, 257, 4095, 4096, 4097])
    def test_level_count_boundaries(self, n):
        # The level count is the bit length of n - 1, the largest value
        # prev + 1 can take; re-referencing the line just before the
        # last access puts that value in.
        lines = np.random.default_rng(n).integers(0, 48, n)
        lines[-1] = lines[-2]
        lines = lines.tolist()
        assert _distances(lines) == naive_stack_distances(lines)


class TestCapturedStream:
    """Spot checks on a captured stream too long for the naive reference."""

    def test_warm_distances_count_distinct_lines_in_window(self):
        guest = get_workload("FIMI").synthetic_guest(accesses_per_thread=8192)
        chunk = capture_replay_log(guest, 4).to_chunk()
        assert len(chunk) >= 30_000
        lines = chunk.lines(64)
        distances = stack_distances(chunk, 64)
        previous = previous_occurrences(lines)
        assert np.all(distances[previous < 0] == COLD)
        warm = np.flatnonzero(previous >= 0)
        for t in np.random.default_rng(17).choice(warm, size=500, replace=False):
            window = lines[previous[t] + 1 : t]
            assert lines[previous[t]] == lines[t] and lines[t] not in window
            assert distances[t] == len(np.unique(window))


class TestMissEquivalence:
    """THE core identity: stack distance >= C  <=>  LRU miss at capacity C."""

    def test_equivalence_across_capacities(self):
        chunk = uniform_random(
            Region(0, 64 * 1024), count=5000, rng=np.random.default_rng(21)
        )
        distances = stack_distances(chunk, 64)
        for capacity in (16, 64, 256, 1024):
            cache = FullyAssociativeLRU(capacity_lines=capacity)
            cache.access_chunk(chunk)
            assert miss_count(distances, capacity) == cache.stats.misses

    def test_equivalence_on_scans(self):
        chunk = cyclic_scan(Region(0, 16 * 1024), passes=4, stride=32)
        distances = stack_distances(chunk, 64)
        for capacity in (128, 255, 256, 257, 512):
            cache = FullyAssociativeLRU(capacity_lines=capacity)
            cache.access_chunk(chunk)
            assert miss_count(distances, capacity) == cache.stats.misses

    def test_miss_curve_monotone(self):
        chunk = uniform_random(
            Region(0, 32 * 1024), count=3000, rng=np.random.default_rng(5)
        )
        distances = stack_distances(chunk, 64)
        curve = miss_curve(distances, [8, 16, 32, 64, 128, 256])
        misses = [m for _, m in curve]
        assert misses == sorted(misses, reverse=True)

    def test_cold_counting_toggle(self):
        chunk = TraceChunk([0, 64, 0])
        distances = stack_distances(chunk, 64)
        assert miss_count(distances, 8, count_cold=True) == 2
        assert miss_count(distances, 8, count_cold=False) == 0
