"""Property tests: the fast LRU kernel equals the generic LRU policy.

The audit layer's differential oracle (:mod:`repro.audit.oracle`)
samples this equivalence at runtime; these tests establish it
exhaustively over random geometries and access patterns, so a kernel
regression is caught at test time, not discovered as an oracle
violation inside someone's sweep.  Three faces are checked: per-access
outcomes (hit, evicted victim), final directory state in LRU→MRU
order, and the batched path's consecutive-repeat collapse.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fastlru import FastLRUKernel
from repro.cache.replacement import LRUPolicy

geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16]),  # num_sets (power of two)
    st.integers(min_value=1, max_value=8),  # associativity
)

lines_strategy = st.lists(
    st.integers(min_value=0, max_value=255), min_size=1, max_size=400
)


def drive_scalar(kernel, num_sets, lines):
    """Scalar per-access outcomes: (hit, evicted) per line."""
    mask = num_sets - 1
    return [kernel.lookup(line & mask, line) for line in lines]


def directories(policy, num_sets):
    """Resident tags of every set, LRU→MRU."""
    return [policy.resident_tags(s) for s in range(num_sets)]


class TestScalarEquivalence:
    @given(geometry=geometries, lines=lines_strategy)
    @settings(max_examples=80, deadline=None)
    def test_per_access_outcomes_match(self, geometry, lines):
        num_sets, assoc = geometry
        fast = FastLRUKernel(num_sets, assoc)
        reference = LRUPolicy(num_sets, assoc)
        assert drive_scalar(fast, num_sets, lines) == drive_scalar(
            reference, num_sets, lines
        )
        assert directories(fast, num_sets) == directories(reference, num_sets)

    @given(geometry=geometries, lines=lines_strategy)
    @settings(max_examples=40, deadline=None)
    def test_contains_and_invalidate_match(self, geometry, lines):
        num_sets, assoc = geometry
        fast = FastLRUKernel(num_sets, assoc)
        reference = LRUPolicy(num_sets, assoc)
        drive_scalar(fast, num_sets, lines)
        drive_scalar(reference, num_sets, lines)
        mask = num_sets - 1
        for line in set(lines):
            assert fast.contains(line & mask, line) == reference.contains(
                line & mask, line
            )
        victim = lines[len(lines) // 2]
        assert fast.invalidate(victim & mask, victim) == reference.invalidate(
            victim & mask, victim
        )
        assert directories(fast, num_sets) == directories(reference, num_sets)


class TestBatchedEquivalence:
    @given(geometry=geometries, lines=lines_strategy)
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_generic_loop(self, geometry, lines):
        num_sets, assoc = geometry
        fast = FastLRUKernel(num_sets, assoc)
        reference = LRUPolicy(num_sets, assoc)
        arr = np.asarray(lines, dtype=np.uint64)
        sets = arr & np.uint64(num_sets - 1) if num_sets > 1 else None
        result = fast.lookup_batch(arr, sets)
        ref_outcomes = drive_scalar(reference, num_sets, lines)
        assert result.misses == sum(1 for hit, _ in ref_outcomes if not hit)
        assert result.evictions == sum(
            1 for _, evicted in ref_outcomes if evicted is not None
        )
        assert directories(fast, num_sets) == directories(reference, num_sets)

    @given(
        geometry=geometries,
        lines=lines_strategy,
        repeats=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_repeat_collapse_is_invisible(self, geometry, lines, repeats):
        """Consecutive same-line repeats (the collapse fast path) leave
        per-access totals and directory state exactly as the generic
        policy produces them."""
        num_sets, assoc = geometry
        repeated = [line for line in lines for _ in range(repeats)]
        fast = FastLRUKernel(num_sets, assoc)
        reference = LRUPolicy(num_sets, assoc)
        arr = np.asarray(repeated, dtype=np.uint64)
        sets = arr & np.uint64(num_sets - 1) if num_sets > 1 else None
        result = fast.lookup_batch(arr, sets)
        ref_outcomes = drive_scalar(reference, num_sets, repeated)
        assert len(result.hits) == len(repeated)
        np.testing.assert_array_equal(
            np.asarray(result.hits, dtype=bool),
            np.array([hit for hit, _ in ref_outcomes], dtype=bool),
        )
        assert directories(fast, num_sets) == directories(reference, num_sets)
