"""Tests for cache statistics plumbing and the window sampler."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.sampling import WindowSampler
from repro.cache.stats import CacheStats, note_lines
from repro.serve.jobspec import pickle_digest
from repro.trace.record import AccessKind
from repro.errors import (
    CalibrationError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    TraceError,
)


class TestCacheStats:
    def make(self) -> CacheStats:
        stats = CacheStats()
        stats.note_access(core=0, is_read=True, hit=True)
        stats.note_access(core=0, is_read=True, hit=False)
        stats.note_access(core=1, is_read=False, hit=False)
        return stats

    def test_note_access_accounting(self):
        stats = self.make()
        assert stats.accesses == 3
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.reads == 2 and stats.writes == 1
        assert stats.read_misses == 1 and stats.write_misses == 1
        assert stats.per_core_accesses == {0: 2, 1: 1}
        assert stats.per_core_misses == {0: 1, 1: 1}

    def test_ratios(self):
        stats = self.make()
        assert stats.miss_ratio == pytest.approx(2 / 3)
        assert stats.hit_ratio == pytest.approx(1 / 3)
        assert CacheStats().miss_ratio == 0.0
        assert CacheStats().hit_ratio == 0.0

    def test_mpki_apki(self):
        stats = self.make()
        assert stats.mpki(1000) == 2.0
        assert stats.apki(1000) == 3.0
        assert stats.mpki(0) == 0.0

    def test_merge_sums_everything(self):
        merged = self.make().merge(self.make())
        assert merged.accesses == 6
        assert merged.per_core_accesses == {0: 4, 1: 2}
        assert merged.per_core_misses == {0: 2, 1: 2}

    def test_note_batch_matches_note_access(self):
        """The vectorized accounting equals the per-access accounting."""
        kinds = np.array([0, 1, 0, 0, 1, 0], dtype=np.uint8)
        cores = np.array([0, 0, 1, 2, 1, 0], dtype=np.uint16)
        hits = np.array([True, False, False, True, True, False])
        lines = np.arange(kinds.size, dtype=np.uint64)
        batched = CacheStats()
        note_lines([batched], lines, kinds, cores, np.flatnonzero(~hits))
        reference = CacheStats()
        for kind, core, hit in zip(kinds, cores, hits):
            reference.note_access(
                int(core), int(kind) == int(AccessKind.READ), bool(hit)
            )
        assert batched == reference

    def test_note_batch_scalar_core(self):
        kinds = np.array([0, 0, 1], dtype=np.uint8)
        hits = np.array([False, True, False])
        lines = np.arange(kinds.size, dtype=np.uint64)
        stats = CacheStats()
        note_lines([stats], lines, kinds, 3, np.flatnonzero(~hits))
        assert stats.accesses == 3 and stats.misses == 2
        assert stats.per_core_accesses == {3: 3}
        assert stats.per_core_misses == {3: 2}


@st.composite
def line_batches(draw):
    """(B, batches): access batches over ``B`` interleaved blocks.

    A batch is ``(lines, kinds, cores, miss_at)``; ``cores`` is a
    scalar or one core per access, and cores reach a block in any
    order across batches.
    """
    banks = draw(st.sampled_from([1, 4]))
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=0, max_value=40))
        lines = draw(st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n))
        kinds = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            cores = draw(st.integers(0, 40))
        else:
            cores = np.array(
                draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)),
                dtype=np.uint16,
            )
        misses = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        batches.append(
            (
                np.array(lines, dtype=np.uint64),
                np.array(kinds, dtype=np.uint8),
                cores,
                np.flatnonzero(misses),
            )
        )
    return banks, batches


@settings(max_examples=200, deadline=None)
@given(line_batches())
def test_note_lines_matches_note_access(case):
    """The shared counter update equals one ``note_access`` per access,
    at B = 1 (a plain cache) and B = 4 (the CC banks): every field, and
    the per-core dicts in ascending core order."""
    banks, batches = case
    batched = [CacheStats() for _ in range(banks)]
    reference = [CacheStats() for _ in range(banks)]
    for lines, kinds, cores, miss_at in batches:
        note_lines(batched, lines, kinds, cores, miss_at)
        missed = set(miss_at.tolist())
        for i, line in enumerate(lines.tolist()):
            core = cores if isinstance(cores, int) else int(cores[i])
            reference[line & (banks - 1)].note_access(
                core, int(kinds[i]) == int(AccessKind.READ), i not in missed
            )
    for got, want in zip(batched, reference):
        for field in dataclasses.fields(CacheStats):
            assert getattr(got, field.name) == getattr(want, field.name), field.name
        assert list(got.per_core_accesses) == sorted(got.per_core_accesses)
        assert list(got.per_core_misses) == sorted(got.per_core_misses)
        assert pickle_digest(got) == pickle_digest(want)


class TestWindowSampler:
    def make(self) -> tuple[WindowSampler, CacheStats]:
        # 1000 cycles per window for easy arithmetic.
        sampler = WindowSampler(frequency_hz=2e6, interval_us=500.0)
        assert sampler.cycles_per_window == 1000
        return sampler, CacheStats()

    def feed(self, stats: CacheStats, accesses: int, misses: int) -> None:
        for i in range(accesses):
            stats.note_access(0, True, hit=i >= misses)

    @staticmethod
    def counts(stats: CacheStats) -> tuple[int, int]:
        return stats.accesses, stats.misses

    def test_single_boundary(self):
        sampler, stats = self.make()
        self.feed(stats, 10, 4)
        sampler.advance(1000, 500, *self.counts(stats))
        assert len(sampler.samples) == 1
        sample = sampler.samples[0]
        assert sample.accesses == 10 and sample.misses == 4
        assert sample.instructions == 500
        assert sample.mpki == pytest.approx(8.0)

    def test_coarse_message_emits_multiple_windows(self):
        """One cycles-completed message may cross several boundaries."""
        sampler, stats = self.make()
        self.feed(stats, 6, 2)
        sampler.advance(3500, 900, *self.counts(stats))
        assert len(sampler.samples) == 3
        # All activity lands in the first emitted window; later windows
        # carry zero deltas.
        assert sampler.samples[0].misses == 2
        assert sampler.samples[1].accesses == 0

    def test_finalize_partial_window(self):
        sampler, stats = self.make()
        self.feed(stats, 4, 1)
        sampler.advance(1000, 100, *self.counts(stats))
        self.feed(stats, 3, 3)
        sampler.finalize(1400, 150, *self.counts(stats))
        assert len(sampler.samples) == 2
        assert sampler.samples[1].accesses == 3
        assert sampler.samples[1].cycles == 400

    def test_finalize_empty_tail_suppressed(self):
        sampler, stats = self.make()
        self.feed(stats, 2, 1)
        sampler.advance(1000, 100, *self.counts(stats))
        sampler.finalize(1000, 100, *self.counts(stats))
        assert len(sampler.samples) == 1

    def test_window_miss_ratio(self):
        sampler, stats = self.make()
        self.feed(stats, 10, 5)
        sampler.advance(1000, 100, *self.counts(stats))
        assert sampler.samples[0].miss_ratio == pytest.approx(0.5)

    def test_exact_boundary_closes_window_with_its_delta(self):
        """A report landing exactly on a boundary closes the window and
        the activity it reports is attributed to the closing window —
        the ``>=`` contract both the scalar and batched paths share."""
        sampler, stats = self.make()
        self.feed(stats, 5, 2)
        sampler.advance(999, 50, *self.counts(stats))
        assert sampler.samples == []  # one cycle short: window still open
        self.feed(stats, 1, 0)
        sampler.advance(1000, 60, *self.counts(stats))  # clock == boundary
        assert len(sampler.samples) == 1
        sample = sampler.samples[0]
        assert sample.accesses == 6 and sample.misses == 2
        assert sample.instructions == 60 and sample.cycles == 1000
        # Nothing carried past the boundary: the tail window is empty.
        sampler.finalize(1000, 60, *self.counts(stats))
        assert len(sampler.samples) == 1

    def test_fractional_window_width_does_not_drift(self):
        """3.333 MHz x 500 µs = 1666.5 cycles/window.  Truncating once
        and striding by 1666 gains a spurious extra window every ~3333
        windows; the boundary series must instead track ceil(k*width),
        the reference host-pull integration."""
        import math

        sampler = WindowSampler(frequency_hz=3.333e6, interval_us=500.0)
        width = 3.333e6 * 500.0 * 1e-6
        assert width == 1666.5
        total = 10_000_000
        for clock in range(1666, total + 1, 1666):
            sampler.advance(clock, 0, 0, 0)
        sampler.advance(total, 0, 0, 0)
        assert len(sampler.samples) == math.floor(total / width)  # not 6002
        # Every emitted window ends on a reference boundary.
        assert sum(s.cycles for s in sampler.samples) == math.ceil(
            len(sampler.samples) * width
        )

    def test_integral_window_width_unchanged(self):
        """The default 100 MHz x 500 µs geometry has integral width;
        its boundary series must be exactly k * cycles_per_window."""
        sampler = WindowSampler()  # the emulator's default
        assert sampler.cycles_per_window == 50_000
        sampler.advance(150_000, 0, 0, 0)
        assert [s.cycles for s in sampler.samples] == [50_000] * 3

    def test_advance_series_matches_advance_loop(self):
        """The batched searchsorted aggregation equals the per-report
        loop on a randomized progress series, finalize tail included."""
        rng = np.random.default_rng(9)
        reports = 48
        cycles = np.cumsum(rng.integers(0, 2500, size=reports))
        accesses = np.cumsum(rng.integers(0, 50, size=reports))
        misses = (accesses * 2) // 5
        instructions = np.cumsum(rng.integers(0, 900, size=reports))

        loop = WindowSampler(frequency_hz=2e6, interval_us=500.0)
        for i in range(reports):
            loop.advance(
                int(cycles[i]),
                int(instructions[i]),
                int(accesses[i]),
                int(misses[i]),
            )
        batched = WindowSampler(frequency_hz=2e6, interval_us=500.0)
        batched.advance_series(cycles, instructions, accesses, misses)
        assert batched.samples == loop.samples
        final = (int(accesses[-1]) + 3, int(misses[-1]) + 1)
        loop.finalize(int(cycles[-1]) + 123, int(instructions[-1]) + 5, *final)
        batched.finalize(int(cycles[-1]) + 123, int(instructions[-1]) + 5, *final)
        assert batched.samples == loop.samples

    def test_advance_series_refused_in_interpolate_mode(self):
        sampler = WindowSampler(frequency_hz=2e6, interpolate=True)
        with pytest.raises(ConfigurationError):
            sampler.advance_series([1000], [0], [0], [0])


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc", [ConfigurationError, ProtocolError, TraceError, CalibrationError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_repro_error_is_exception(self):
        assert issubclass(ReproError, Exception)
