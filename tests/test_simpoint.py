"""Tests for the sampled-simulation engine (``repro.simpoint``).

The load-bearing guarantees: degenerate sampling is bit-identical to
the exact replay path, and the interval/cluster helpers keep their
units straight.  That seeded runs are deterministic and that
fingerprints round-trip through the trace cache without changing the
result are cells of ``tests/test_routes.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SamplingError
from repro.harness.replay import capture_replay_log, replay
from repro.cache.emulator import DragonheadConfig
from repro.simpoint import (
    MetricEstimate,
    SampleSpec,
    cluster_intervals,
    interval_bounds,
    parse_sample_spec,
    sampled_sweep,
    slice_progress,
)
from repro.simpoint.fingerprint import (
    COLD_BUCKETS,
    _associative_hit_curve,
    cold_start_hit_ratio,
    cold_start_uncertainty,
    fingerprint_intervals,
)
from repro.simpoint.intervals import interval_instructions
from repro.units import MB
from repro.workloads.registry import get_workload

CONFIG = DragonheadConfig(cache_size=1 * MB)


def _capture(accesses_per_thread=4096, cores=2, repeats=1):
    guest = get_workload("FIMI").synthetic_guest(
        accesses_per_thread=accesses_per_thread, repeats=repeats
    )
    return capture_replay_log(guest, cores)


class TestIntervals:
    def test_interval_bounds_units(self):
        assert interval_bounds(10, 4).tolist() == [0, 4, 8, 10]
        assert interval_bounds(8, 4).tolist() == [0, 4, 8]
        assert interval_bounds(3, 4).tolist() == [0, 3]

    def test_interval_bounds_rejects_bad_input(self):
        with pytest.raises(SamplingError):
            interval_bounds(10, 0)
        with pytest.raises(SamplingError):
            interval_bounds(0, 4)

    def test_slice_progress_degenerate_returns_table_unchanged(self):
        table = np.array([[0, 5, 7], [4, 10, 20], [9, 30, 40]], dtype=np.int64)
        sliced = slice_progress(table, 0, 9)
        assert sliced.tolist() == table.tolist()

    def test_slice_progress_rebases_offsets_and_counters(self):
        table = np.array([[0, 5, 7], [4, 10, 20], [9, 30, 40]], dtype=np.int64)
        sliced = slice_progress(table, 4, 9)
        # The offset-4 row belongs to the previous interval (it arrived
        # before access 4 ran); only the offset-9 row lands inside, and
        # both counters rebase to the step value at the interval start.
        assert sliced.tolist() == [[5, 20, 20]]

    def test_interval_instructions_sum_to_total(self):
        log = _capture()
        bounds = interval_bounds(log.accesses, 1024)
        per_interval = interval_instructions(
            log.progress_table(), bounds, log.instructions
        )
        assert len(per_interval) == len(bounds) - 1
        assert int(per_interval.sum()) == log.instructions


class TestSampleSpec:
    def test_parse_plain_and_suffixed(self):
        assert parse_sample_spec("4096") == SampleSpec(interval=4096)
        assert parse_sample_spec("64k,6") == SampleSpec(interval=65536, max_k=6)
        assert parse_sample_spec("1m") == SampleSpec(interval=1024 * 1024)

    @pytest.mark.parametrize("text", ["", "x", "64q", "64k,x", "1,2,3"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(SamplingError):
            parse_sample_spec(text)

    def test_spec_rejects_nonpositive_knobs(self):
        with pytest.raises(SamplingError):
            SampleSpec(interval=0)
        with pytest.raises(SamplingError):
            SampleSpec(interval=4096, max_k=0)

    def test_resolved_warmup_caps_at_interval(self):
        assert SampleSpec(interval=1024).resolved_warmup() == 1024
        assert SampleSpec(interval=65536).resolved_warmup() == 8192
        assert SampleSpec(interval=1024, warmup=16).resolved_warmup() == 16

    def test_metric_estimate_brackets_and_format(self):
        estimate = MetricEstimate(2.0, 0.5)
        assert estimate.brackets(2.4) and estimate.brackets(1.5)
        assert not estimate.brackets(2.6)
        assert f"{estimate:.2f}" == "2.00±0.50"


class TestClustering:
    def test_two_obvious_clusters_found_deterministically(self):
        rng = np.random.default_rng(7)
        features = np.vstack(
            [rng.normal(0.0, 0.01, (12, 3)), rng.normal(1.0, 0.01, (12, 3))]
        )
        first = cluster_intervals(features, max_k=6, seed=0)
        second = cluster_intervals(features, max_k=6, seed=0)
        assert first.k == 2
        assert first.labels.tolist() == second.labels.tolist()
        assert first.representatives == second.representatives
        assert len(set(first.labels[:12])) == 1
        assert len(set(first.labels[12:])) == 1

    def test_identical_features_collapse_to_one_cluster(self):
        features = np.ones((8, 4))
        clustering = cluster_intervals(features, max_k=4, seed=0)
        assert clustering.k == 1
        assert clustering.labels.tolist() == [0] * 8


class TestColdStartModel:
    def test_hit_curve_is_monotone_and_cold_misses(self):
        curve = _associative_hit_curve(capacity_lines=4096, associativity=16)
        assert len(curve) == 1 + COLD_BUCKETS
        assert curve[0] == 0.0  # a never-seen line cannot hit
        body = curve[1:]
        assert np.all(body >= 0.0) and np.all(body <= 1.0)
        # Monotone up to the ~1e-5 numeric noise of the log-space
        # binomial CDF (lgamma cancellation near probability 1).
        assert np.all(np.diff(body) <= 1e-4)
        assert body[0] > 0.99  # distance ~1 always fits

    def test_uncertainty_never_exceeds_correction_mass(self):
        log = _capture()
        bounds = interval_bounds(log.accesses, 1024)
        prints = fingerprint_intervals(
            log.to_chunk(), bounds, log.cores, warmup=512
        )
        capacity = CONFIG.cache_size // prints.line_size
        ratio = cold_start_hit_ratio(prints, capacity, CONFIG.associativity)
        uncertainty = cold_start_uncertainty(
            prints, capacity, CONFIG.associativity
        )
        assert np.all(ratio >= 0.0) and np.all(ratio <= 1.0)
        # Both are the same cold-mass average, of min(p, 1-p) and of p:
        # the model-error band can never exceed the correction itself.
        assert np.all(uncertainty <= ratio + 1e-12)


class TestSampledSweep:
    def test_degenerate_interval_is_bit_identical_to_exact(self):
        log = _capture()
        exact = replay(log, CONFIG)
        [sampled] = sampled_sweep(
            log, [CONFIG], SampleSpec(interval=log.accesses)
        )
        assert sampled.sampled is True
        assert sampled.coverage.intervals == 1
        assert sampled.misses == MetricEstimate(float(exact.llc_stats.misses), 0.0)
        assert sampled.mpki == MetricEstimate(exact.mpki, 0.0)
        assert sampled.instructions == exact.instructions
        assert sampled.accesses == exact.accesses
        assert sampled.filtered == exact.filtered
        inner = sampled.representative_results[0]
        assert inner.performance == exact.performance
        assert inner.llc_stats == exact.llc_stats
        assert inner.instructions == exact.instructions
        assert inner.accesses == exact.accesses
        assert inner.filtered == exact.filtered
        assert inner.degradation == exact.degradation

    def test_estimates_land_near_exact_with_honest_bars(self):
        log = _capture(accesses_per_thread=8192)
        exact = replay(log, CONFIG)
        [sampled] = sampled_sweep(log, [CONFIG], SampleSpec(interval=2048))
        assert sampled.coverage.intervals > 1
        assert 0.0 < sampled.coverage.simulated_fraction <= 1.0
        assert sampled.mpki.brackets(exact.mpki)


class TestLongStreamKnob:
    def test_repeats_scale_the_stream(self):
        single = _capture(accesses_per_thread=2048, repeats=1)
        double = _capture(accesses_per_thread=2048, repeats=2)
        assert double.accesses == 2 * single.accesses

    def test_repeats_must_be_positive(self):
        workload = get_workload("FIMI")
        with pytest.raises(ConfigurationError):
            workload.synthetic_guest(repeats=0)
        with pytest.raises(ConfigurationError):
            workload.kernel_guest(repeats=-1)


class TestCLIIntegration:
    def test_sample_conflicts_with_phases(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                ["--workload", "FIMI", "--sample", "4096", "--phases"]
            )
        assert excinfo.value.code == 2

    def test_runall_accepts_sample_flag(self, capsys):
        from repro.harness import runall

        assert runall.main(["--sample", "1m"]) == 0
        assert "Table 1" in capsys.readouterr().out
