"""Tests for the telemetry subsystem (registry, spans, sinks, windows).

Two contracts dominate.  First, *observation changes nothing*: with
telemetry off the platform's outputs are byte-identical to a build
without the subsystem (the differential tests compare full
``CoSimResult`` trees, which are frozen dataclasses, so ``==`` covers
every counter and window sample), and even with telemetry *on* the
results are unchanged — only observed.  Second, *the mirrors are
exact*: the live 500 µs window stream must reproduce the sampler's own
accumulators sample-for-sample, the JSONL log must replay into an
identical registry, and the profile must reconcile against the result
aggregates it claims to summarize.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cache.emulator import DragonheadConfig
from repro.core.cosim import CoSimPlatform
from repro.errors import TelemetryError
from repro.faults.report import DegradationRecord, merge_records
from repro.harness import cli
from repro.harness.replay import capture_replay_log, replay
from repro.telemetry import profile as profiling
from repro.telemetry import runtime as telemetry
from repro.telemetry.registry import DEFAULT_BUCKETS, MetricRegistry
from repro.telemetry.sinks import (
    JsonlSink,
    parse_prometheus,
    read_events,
    render_prometheus,
    replay_events_into,
    snapshot_events,
    write_prometheus,
)
from repro.units import MB
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _telemetry_off_after():
    """Every test leaves the process-wide switch the way it found it: off."""
    yield
    telemetry.configure(enabled=False)


def small_run(cache_size=4 * MB, line_size=64):
    config = DragonheadConfig(cache_size=cache_size, line_size=line_size)
    guest = get_workload("FIMI").kernel_guest()
    return CoSimPlatform(config).run(guest, cores=2)


# -- the registry -------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricRegistry()
        registry.counter("c", kind="a").inc()
        registry.counter("c", kind="a").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.3)
        assert registry.value("c", kind="a") == 3
        assert registry.value("g") == 1.5
        assert len(registry) == 3

    def test_type_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("metric")
        with pytest.raises(TelemetryError, match="metric"):
            registry.gauge("metric")

    def test_negative_counter_increment_raises(self):
        registry = MetricRegistry()
        with pytest.raises(TelemetryError):
            registry.counter("c").inc(-1)

    def test_histogram_bucket_edges_are_le_inclusive(self):
        registry = MetricRegistry()
        hist = registry.histogram("h", buckets=(0.1, 1.0, 10.0))
        hist.observe(0.1)  # exactly on an edge: belongs to le=0.1
        hist.observe(1.0)
        hist.observe(5.0)
        hist.observe(999.0)  # beyond the last edge: +Inf only
        cumulative = dict(hist.cumulative())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 2
        assert cumulative[10.0] == 3
        assert cumulative[float("inf")] == 4

    def test_default_buckets_are_sorted_and_positive(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert all(edge > 0 for edge in DEFAULT_BUCKETS)


# -- sinks: JSONL round trip and Prometheus exposition ------------------


class TestSinks:
    def _populated_registry(self) -> MetricRegistry:
        registry = MetricRegistry()
        registry.counter("repro_demo_total", kind="hits").inc(7)
        registry.counter("repro_demo_total", kind="misses").inc(3)
        registry.gauge("repro_demo_gauge", series="4MB/64B").set(2.25)
        hist = registry.histogram("repro_demo_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(50.0)
        return registry

    def test_jsonl_round_trip_reproduces_the_registry(self, tmp_path):
        source = self._populated_registry()
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            for event in snapshot_events(source):
                sink.emit(event)
        rebuilt = MetricRegistry()
        replay_events_into(rebuilt, read_events(path))
        assert render_prometheus(rebuilt) == render_prometheus(source)

    def test_torn_tail_event_is_tolerated(self, tmp_path):
        source = self._populated_registry()
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            for event in snapshot_events(source):
                sink.emit(event)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "metric", "name": "torn')  # crash mid-line
        events = list(read_events(path))
        assert all("torn" not in json.dumps(e) for e in events)

    def test_prometheus_exposition_parses_back(self, tmp_path):
        source = self._populated_registry()
        path = tmp_path / "metrics.prom"
        write_prometheus(source, path)
        samples = parse_prometheus(path.read_text(encoding="utf-8"))
        assert samples['repro_demo_total{kind="hits"}'] == 7
        assert samples['repro_demo_gauge{series="4MB/64B"}'] == 2.25
        # Histogram: cumulative buckets, then _sum and _count (the
        # renderer collapses integral floats, so the edge 1.0 is "1").
        assert samples['repro_demo_seconds_bucket{le="0.1"}'] == 1
        assert samples['repro_demo_seconds_bucket{le="1"}'] == 2
        assert samples['repro_demo_seconds_bucket{le="+Inf"}'] == 3
        assert samples["repro_demo_seconds_count"] == 3
        assert samples["repro_demo_seconds_sum"] == pytest.approx(50.55)


# -- observation changes nothing ----------------------------------------


class TestByteIdentity:
    def test_cosim_results_identical_with_telemetry_on_and_off(self):
        baseline = small_run()  # telemetry never configured
        with telemetry.session():
            observed = small_run()
        telemetry.configure(enabled=False)
        after = small_run()  # telemetry explicitly off
        assert observed == baseline
        assert after == baseline

    def test_replay_results_identical_with_telemetry_on_and_off(self):
        guest = get_workload("FIMI").kernel_guest()
        config = DragonheadConfig(cache_size=1 * MB)
        log = capture_replay_log(guest, cores=2)
        baseline = replay(log, config)
        with telemetry.session():
            observed = replay(log, config)
        assert observed == baseline

    def test_disabled_path_overhead_is_negligible(self):
        # CI-safe guard, not a microbenchmark: the disabled fast path is
        # one None check plus a no-op method, so even a very generous
        # bound catches an accidental allocation or lock on the path.
        iterations = 50_000
        start = time.perf_counter()
        for _ in range(iterations):
            telemetry.counter("repro_overhead_probe_total").inc()
            with telemetry.span("probe"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"disabled path took {elapsed:.3f}s for {iterations} iterations"


class TestForkedWorkers:
    """A forked worker keeps the session it forked under: its spans
    reach that session's event log.  The pool is bound to the session,
    so a later map without it adds nothing to the file."""

    def test_pooled_points_log_into_the_forking_session_only(self, tmp_path):
        from repro.serve.jobspec import JobSpec

        spec = JobSpec(
            workload="FIMI",
            cores=2,
            cache=(1 * MB, 4 * MB),
            source="synthetic",
            accesses=4096,
        )
        path = tmp_path / "events.jsonl"
        with telemetry.session(events_path=str(path)):
            spec.run(jobs=2)
            spec.run(jobs=2)
        points = [
            event
            for event in read_events(path)
            if event.get("event") == "span" and event["name"] == "replay.point"
        ]
        assert len(points) == 2 * len(spec.cache)
        logged = path.read_bytes()
        spec.run(jobs=2)
        assert path.read_bytes() == logged


# -- the live window stream ---------------------------------------------


class TestWindowStream:
    def test_stream_mirrors_the_sampler_exactly(self):
        with telemetry.session():
            result = small_run(cache_size=4 * MB, line_size=64)
            series = telemetry.stream().latest("4MB/64B")
            assert series is not None
            assert series.mpki_series() == [s.mpki for s in result.samples]
            assert [s.index for s in series.samples] == [
                s.index for s in result.samples
            ]
            assert telemetry.registry().value(
                "repro_windows_total", series="4MB/64B"
            ) == len(result.samples)

    def test_window_gauges_hold_the_latest_sample(self):
        with telemetry.session():
            result = small_run(cache_size=1 * MB, line_size=64)
            last = result.samples[-1]
            assert telemetry.registry().value(
                "repro_window_mpki", series="1MB/64B"
            ) == pytest.approx(last.mpki)


# -- profile and registry-sourced degradation ---------------------------


class TestProfile:
    def test_profile_reconciles_with_result_aggregates(self):
        with telemetry.session():
            with telemetry.span("run"):
                with telemetry.span("replay"):
                    results = [small_run()]
            profiling.publish_results(telemetry.registry(), results)
            profile = profiling.build_profile(
                results, telemetry.tracker(), telemetry.registry()
            )
        assert profile["reconciled"] is True
        assert profile["runs"] == 1
        assert profile["accesses"] == results[0].accesses
        assert profile["windows"] == len(results[0].samples)
        assert profile["phase_coverage"] >= profiling.PHASE_COVERAGE_FLOOR
        rendered = profiling.render_profile(profile)
        assert "reconciliation       : OK" in rendered

    def test_unpublished_results_fail_reconciliation(self):
        with telemetry.session():
            with telemetry.span("run"):
                pass
            results = [small_run()]  # never published into the registry
            profile = profiling.build_profile(
                results, telemetry.tracker(), telemetry.registry()
            )
        assert profile["reconciled"] is False
        assert "MISMATCH" in profiling.render_profile(profile)

    def test_registry_degradation_matches_merge_records(self):
        records = (
            DegradationRecord(kind="drop-data", source="fsb", count=3, detail="x"),
            DegradationRecord(kind="miss-window", source="cb", count=1, detail="y"),
            DegradationRecord(kind="drop-data", source="fsb", count=2, detail="x"),
        )
        registry = MetricRegistry()
        for record in records:
            registry.counter(
                profiling.FAULT_EVENTS_TOTAL,
                kind=record.kind,
                source=record.source,
                detail=record.detail,
            ).inc(record.count)
        assert profiling.registry_degradation_records(registry) == merge_records(
            records
        )


# -- the CLI flags end to end -------------------------------------------


class TestCliIntegration:
    def test_telemetry_flags_produce_all_three_sinks(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.prom"
        profile_path = tmp_path / "profile.json"
        code = cli.main(
            [
                "--workload", "FIMI", "--cores", "2", "--cache", "1MB,4MB",
                "--telemetry", str(events),
                "--metrics-file", str(metrics),
                "--profile", str(profile_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reconciliation       : OK" in out
        samples = parse_prometheus(metrics.read_text(encoding="utf-8"))
        assert samples["repro_runs_total"] == 2
        profile = json.loads(profile_path.read_text(encoding="utf-8"))
        assert profile["reconciled"] is True
        assert abs(
            sum(p["seconds"] for p in profile["phases"].values())
            - profile["total_seconds"]
        ) <= 0.05 * profile["total_seconds"]
        assert any(e.get("event") == "window" for e in read_events(events))

    def test_cli_output_is_byte_identical_without_telemetry(self, capsys):
        argv = ["--workload", "FIMI", "--cores", "2", "--cache", "1MB"]
        assert cli.main(argv) == 0
        baseline = capsys.readouterr().out
        with telemetry.session():
            pass  # a stale session must not leak into the next run
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == baseline
