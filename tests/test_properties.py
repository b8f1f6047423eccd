"""Property-based tests (hypothesis) for the core invariants.

These cover the identities everything else rests on:

* stack distance >= capacity  <=>  fully-associative LRU miss;
* the vectorized stack distances and previous occurrences equal their
  brute-force references;
* LRU inclusion (bigger caches never miss more);
* the banked Dragonhead equals a monolithic cache of the same geometry;
* message codec round-trips;
* stream combinators conserve transactions;
* MESI single-writer invariants under arbitrary traffic;
* reuse-profile algebra (composition, scaling, dilation).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheConfig, FullyAssociativeLRU, SetAssociativeCache
from repro.cache.coherence import CoherentCacheSystem
from repro.protocol import Message, MessageCodec, MessageKind
from repro.reuse.histogram import ReuseProfile
from repro.reuse.olken import miss_count, previous_occurrences, stack_distances
from repro.trace.record import AccessKind, TraceChunk
from repro.trace.stream import materialize, round_robin_interleave
from repro.units import KB
from tests.test_reuse_olken import naive_stack_distances

# Strategy: short line-address traces over a small footprint, so
# capacities in the interesting range are exercised quickly.
addresses_strategy = st.lists(
    st.integers(min_value=0, max_value=63).map(lambda line: line * 64),
    min_size=1,
    max_size=300,
)


class TestStackDistanceLRUEquivalence:
    @given(addresses=addresses_strategy, capacity=st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_identity(self, addresses, capacity):
        chunk = TraceChunk(addresses)
        distances = stack_distances(chunk, 64)
        cache = FullyAssociativeLRU(capacity_lines=capacity)
        cache.access_chunk(chunk)
        assert miss_count(distances, capacity) == cache.stats.misses


# Line streams over a span drawn from {2, 64, 10**6}, so few-line,
# typical and (mostly) all-cold streams all occur.
line_streams = st.sampled_from([2, 64, 10**6]).flatmap(
    lambda span: st.lists(st.integers(0, span - 1), min_size=1, max_size=300)
)


class TestStackDistanceReferences:
    @given(lines=line_streams)
    @settings(max_examples=100, deadline=None)
    def test_matches_naive(self, lines):
        chunk = TraceChunk([line * 64 for line in lines])
        assert stack_distances(chunk, 64).tolist() == naive_stack_distances(lines)

    @given(lines=line_streams)
    @settings(max_examples=100, deadline=None)
    def test_previous_occurrences_match_last_seen_dict(self, lines):
        last_seen: dict[int, int] = {}
        expected = []
        for t, line in enumerate(lines):
            expected.append(last_seen.get(line, -1))
            last_seen[line] = t
        assert previous_occurrences(np.array(lines)).tolist() == expected


class TestLRUInclusion:
    @given(addresses=addresses_strategy)
    @settings(max_examples=40, deadline=None)
    def test_monotone_misses(self, addresses):
        chunk = TraceChunk(addresses)
        previous = None
        for capacity in (2, 4, 8, 16, 32, 64):
            cache = FullyAssociativeLRU(capacity_lines=capacity)
            cache.access_chunk(chunk)
            if previous is not None:
                assert cache.stats.misses <= previous
            previous = cache.stats.misses

    @given(addresses=addresses_strategy)
    @settings(max_examples=30, deadline=None)
    def test_distinct_lines_lower_bound(self, addresses):
        """Cold misses alone equal the number of distinct lines."""
        chunk = TraceChunk(addresses)
        distinct = len(np.unique(chunk.lines(64)))
        cache = FullyAssociativeLRU(capacity_lines=1024)
        cache.access_chunk(chunk)
        assert cache.stats.misses == distinct


class TestBankedEmulatorEquivalence:
    @given(
        addresses=st.lists(
            st.integers(0, (1 << 22) - 1).map(lambda a: a * 64), min_size=1, max_size=400
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_banked_equals_reference(self, addresses):
        from repro.cache.emulator import DragonheadConfig, DragonheadEmulator
        from repro.core.fsb import FSBTransaction
        from repro.units import MB

        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB, associativity=4))
        for address in MessageCodec.encode(Message(MessageKind.START_EMULATION)):
            emulator.snoop(FSBTransaction(address=address, kind=AccessKind.WRITE))
        chunk = TraceChunk(addresses)
        emulator.snoop_chunk(chunk)
        banks = [
            SetAssociativeCache(CacheConfig(size=256 * KB, line_size=64, associativity=4))
            for _ in range(4)
        ]
        for line in chunk.lines(64):
            line = int(line)
            banks[line % 4].access_line(line >> 2)
        assert emulator.stats.misses == sum(b.stats.misses for b in banks)


class TestCodecRoundTrip:
    @given(
        kind=st.sampled_from(
            [MessageKind.CORE_ID, MessageKind.INSTRUCTIONS_RETIRED, MessageKind.CYCLES_COMPLETED]
        ),
        payload=st.integers(min_value=0, max_value=(1 << 60) - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, kind, payload):
        if kind is MessageKind.CORE_ID and payload >= (1 << 40):
            payload %= 1 << 40  # CORE_ID has no wide form
        codec = MessageCodec()
        message = Message(kind, payload)
        decoded = [
            m
            for m in (codec.decode(a) for a in MessageCodec.encode(message))
            if m is not None
        ]
        assert decoded == [message]

    @given(payload=st.integers(0, (1 << 60) - 1))
    @settings(max_examples=50, deadline=None)
    def test_encoded_addresses_are_messages(self, payload):
        for address in MessageCodec.encode(
            Message(MessageKind.INSTRUCTIONS_RETIRED, payload)
        ):
            assert MessageCodec.is_message(address)


class TestInterleaveConservation:
    @given(
        lengths=st.lists(st.integers(0, 50), min_size=1, max_size=5),
        quantum=st.integers(1, 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_transaction_delivered_once(self, lengths, quantum):
        streams = [
            [TraceChunk([t * 1000 + i for i in range(n)])] for t, n in enumerate(lengths)
        ]
        merged = materialize(round_robin_interleave(streams, quantum=quantum))
        assert len(merged) == sum(lengths)
        for t, n in enumerate(lengths):
            from_thread = sorted(
                int(a) for a in merged.addresses[merged.cores == t]
            )
            assert from_thread == [t * 1000 + i for i in range(n)]


class TestMESIInvariants:
    @given(
        operations=st.lists(
            st.tuples(
                st.integers(0, 3),  # core
                st.integers(0, 15),  # line
                st.booleans(),  # is_write
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_single_writer(self, operations):
        system = CoherentCacheSystem(
            private_config=CacheConfig(size=1 * KB, line_size=64, associativity=4),
            cores=4,
        )
        for core, line, is_write in operations:
            system.access(
                core, line * 64, AccessKind.WRITE if is_write else AccessKind.READ
            )
        system.check_invariants()

    @given(
        operations=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 7), st.booleans()), max_size=100
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_write_after_any_history_hits_or_misses_consistently(self, operations):
        """A second write by the same core to the same line always hits."""
        system = CoherentCacheSystem(
            private_config=CacheConfig(size=2 * KB, line_size=64, associativity=32),
            cores=2,
        )
        for core, line, is_write in operations:
            system.access(core, line * 64, AccessKind.WRITE if is_write else AccessKind.READ)
        system.access(0, 0, AccessKind.WRITE)
        assert system.access(0, 0, AccessKind.WRITE)  # immediate re-write hits


class TestReuseProfileAlgebra:
    rates = st.lists(st.floats(0.01, 10.0), min_size=1, max_size=5)
    distances = st.lists(st.floats(1.0, 1e6), min_size=1, max_size=5)

    @given(rates=rates, distances=distances, capacity=st.floats(0.5, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_combination_is_additive(self, rates, distances, capacity):
        n = min(len(rates), len(distances))
        profiles = [
            ReuseProfile.point(distances[i], rates[i]) for i in range(n)
        ]
        combined = profiles[0].combine(*profiles[1:])
        assert combined.miss_rate(capacity) == sum(
            p.miss_rate(capacity) for p in profiles
        )

    @given(rate=st.floats(0.01, 100.0), factor=st.floats(0.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_scales_miss_rate(self, rate, factor):
        profile = ReuseProfile.point(100.0, rate)
        assert profile.scaled(factor).miss_rate(10) == rate * factor

    @given(
        distance=st.floats(1.0, 1e4),
        threads=st.integers(1, 64),
        capacity=st.floats(0.5, 1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_dilation_never_reduces_misses(self, distance, threads, capacity):
        from repro.reuse.interleave import dilate_private

        profile = ReuseProfile.point(distance, 1.0)
        dilated = dilate_private(profile, threads)
        assert dilated.miss_rate(capacity) >= profile.miss_rate(capacity)

    @given(capacity=st.floats(0, 1e7))
    @settings(max_examples=40, deadline=None)
    def test_miss_rate_bounded_by_total(self, capacity):
        profile = ReuseProfile.uniform(1000, 5.0).combine(ReuseProfile.streaming(2.0))
        assert 0 <= profile.miss_rate(capacity) <= profile.total_rate + 1e-9


class TestModelMonotonicity:
    @given(
        cache_mb=st.sampled_from([4, 8, 16, 32, 64, 128]),
        threads=st.sampled_from([1, 8, 16, 32]),
    )
    @settings(max_examples=40, deadline=None)
    def test_workload_mpki_decreases_with_size(self, cache_mb, threads):
        from repro.units import MB
        from repro.workloads.profiles import memory_model

        model = memory_model("FIMI")
        smaller = model.llc_mpki(cache_mb * MB, 64, threads)
        bigger = model.llc_mpki(2 * cache_mb * MB, 64, threads)
        assert bigger <= smaller + 1e-9

    @given(threads=st.sampled_from([1, 2, 4, 8, 16, 32]))
    @settings(max_examples=20, deadline=None)
    def test_mpki_never_decreases_with_threads(self, threads):
        from repro.units import MB
        from repro.workloads.profiles import memory_model

        for name in ("SHOT", "FIMI", "MDS"):
            model = memory_model(name)
            single = model.llc_mpki(32 * MB, 64, 1)
            multi = model.llc_mpki(32 * MB, 64, threads)
            assert multi >= single - 1e-9
