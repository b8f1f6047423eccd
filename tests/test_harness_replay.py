"""Differential tests for the multi-config replay engine.

The engine's whole value rests on one claim: replaying a captured log
into a fresh emulator produces *exactly* the statistics a fresh
``CoSimPlatform.run`` would — every field, per-core splits and 500 µs
window samples included.  ``CoSimResult`` is a frozen dataclass tree
(PerformanceData → CacheStats → per-core dicts, WindowSample list), so
one ``==`` compares everything at once; these tests assert it across
workloads, trace sources, and cache geometries.  ``==`` ignores the
order of a dict's keys, which a result's digest does not, so every
comparison also compares ``pickle_digest``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.emulator import DragonheadConfig
from repro.core.cosim import CoSimPlatform
from repro.harness import cli
from repro.serve.jobspec import pickle_digest
from repro.harness.replay import (
    EVENT_DATA,
    EVENT_PROGRESS,
    ReplayLog,
    capture_replay_log,
    load_or_capture,
    log_cache_key,
    replay,
    replay_sweep,
    size_sweep_configs,
)
from repro.trace.cache import TraceCache
from repro.units import MB
from repro.workloads.registry import get_workload
from tests.per_event import per_event_replay

#: ≥3 workloads (different mining kernels → different trace shapes).
WORKLOADS = ("FIMI", "RSEARCH", "MDS")

#: ≥3 geometries: size, line size, and associativity all vary.
GEOMETRIES = (
    DragonheadConfig(cache_size=1 * MB, line_size=64, associativity=16),
    DragonheadConfig(cache_size=4 * MB, line_size=128, associativity=8),
    DragonheadConfig(cache_size=16 * MB, line_size=256, associativity=4),
)


def assert_same_result(a, b, context="") -> None:
    """Field-for-field equal and byte-identical when pickled."""
    assert a == b, f"diverged {context}"
    assert pickle_digest(a) == pickle_digest(b), f"digests differ {context}"


class TestReplayEquivalence:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_kernel_replay_equals_fresh_runs(self, name):
        workload = get_workload(name)
        log = capture_replay_log(workload.kernel_guest(), cores=4)
        for config in GEOMETRIES:
            fresh = CoSimPlatform(config).run(workload.kernel_guest(), cores=4)
            replayed = replay(log, config)
            # Dataclass equality covers instructions, accesses, filtered
            # count, hit/miss/eviction totals, the per-core dicts, and
            # every window sample; the digest adds their key order.
            assert_same_result(replayed, fresh, f"{name} at {config}")

    def test_synthetic_replay_equals_fresh_runs(self):
        workload = get_workload("PLSA")
        guest = workload.synthetic_guest(accesses_per_thread=8192, scale=1 / 256)
        log = capture_replay_log(guest, cores=2)
        for config in GEOMETRIES:
            guest = workload.synthetic_guest(accesses_per_thread=8192, scale=1 / 256)
            fresh = CoSimPlatform(config).run(guest, cores=2)
            assert_same_result(replay(log, config), fresh, f"at {config}")

    def test_nondefault_quantum_and_noise(self):
        workload = get_workload("FIMI")
        config = DragonheadConfig(cache_size=2 * MB)
        log = capture_replay_log(
            workload.kernel_guest(), cores=4, quantum=1024, boot_noise_accesses=512
        )
        fresh = CoSimPlatform(config, quantum=1024, boot_noise_accesses=512).run(
            workload.kernel_guest(), cores=4
        )
        assert_same_result(replay(log, config), fresh)

    def test_sweep_results_align_with_configs(self):
        workload = get_workload("FIMI")
        configs = size_sweep_configs([1 * MB, 4 * MB, 16 * MB])
        results = replay_sweep(workload.kernel_guest(), 4, configs)
        assert len(results) == len(configs)
        # Misses are monotonically non-increasing in cache size.
        misses = [r.llc_stats.misses for r in results]
        assert misses == sorted(misses, reverse=True)


def _adversarial_log() -> ReplayLog:
    """A hand-built log exercising the batched pipeline's edge cases.

    Single-access segments interleave with multi-thousand-access
    batches, core ids flip between adjacent one-access segments, one
    run walks consecutive lines across all four banks, and progress
    reports land one cycle short of, exactly on, and several windows
    past the 50 000-cycle boundary — including a zero-delta repeat.
    """
    rng = np.random.default_rng(31)
    addresses: list[np.ndarray] = []
    kinds: list[np.ndarray] = []
    pcs: list[np.ndarray] = []
    events: list[tuple[int, int, int]] = []
    count = 0

    def data(length: int, core: int, lines: np.ndarray | None = None) -> None:
        nonlocal count
        if lines is None:
            lines = rng.integers(0, 1 << 18, size=length)
        base = np.asarray(lines, dtype=np.uint64) * np.uint64(64)
        addresses.append(base + rng.integers(0, 64, size=length).astype(np.uint64))
        kinds.append(rng.integers(0, 2, size=length).astype(np.uint8))
        pcs.append(rng.integers(0, 1 << 40, size=length).astype(np.uint64))
        count += length
        events.append((EVENT_DATA, count, core))

    def progress(instructions: int, cycles: int) -> None:
        events.append((EVENT_PROGRESS, instructions, cycles))

    data(1, 0)  # single accesses with a core flip between them
    data(1, 1)
    data(4096, 2)  # large batch
    progress(1_000, 49_999)  # one cycle short of the first boundary
    data(1, 2)  # same core as the previous segment: no CORE_ID reissue
    progress(2_000, 50_000)  # exactly on the boundary
    data(8, 3, lines=np.arange(8))  # a run crossing all four banks
    data(2_048, 0)
    progress(9_000, 260_000)  # one report crossing four boundaries
    data(1, 1)  # rapid flips: CORE_ID chatter around single accesses
    data(1, 0)
    data(1, 1)
    data(733, 1)  # extends the open core-1 segment
    progress(9_500, 260_000)  # zero-cycle repeat: counters hold
    data(511, 2)
    progress(12_000, 312_345)
    return ReplayLog(
        workload="ADVERSARIAL",
        cores=4,
        quantum=4096,
        boot_noise_accesses=0,
        addresses=np.concatenate(addresses),
        kinds=np.concatenate(kinds),
        pcs=np.concatenate(pcs),
        events=np.array(events, dtype=np.uint64),
        filtered=137,
        instructions=12_000,
    )


class TestAdversarialStream:
    def test_mixed_size_stream_batched_equals_per_access(self):
        """Field-for-field ``CoSimResult`` equality, and equal digests,
        between the batched fast path and the per-access message loop
        (forced by a pass-through snooper wrapped around the emulator).
        Cores 2 and 3 reach some banks before cores 0 and 1, so the
        digests agree only if every route keeps each bank's per-core
        dicts in ascending core order."""
        log = _adversarial_log()
        for config in GEOMETRIES:
            batched = replay(log, config)
            with per_event_replay() as snoopers:
                per_access = replay(log, config)
            assert snoopers[0].chunks > 0
            assert_same_result(batched, per_access, f"at {config}")

    def test_batched_run_passes_sample_audit(self):
        """The differential LRU oracle, sampled, stays green over a
        batched run — the banks see the same access-for-access stream
        the scalar path would feed them."""
        log = _adversarial_log()
        result = replay(log, GEOMETRIES[0], audit="sample")
        assert result.audit is not None and result.audit.ok


class TestTraceCacheIntegration:
    def test_warm_cache_skips_generation(self, tmp_path):
        """Second run with the same identity never calls the workload."""
        cache = TraceCache(tmp_path)
        workload = get_workload("FIMI")
        cold, _ = load_or_capture(workload.kernel_guest(), 4, trace_cache=cache)
        assert (cache.stats.misses, cache.stats.stores) == (1, 1)

        class ExplodingGuest:
            name = workload.kernel_guest().name

            def thread_streams(self, cores):
                raise AssertionError("generation ran on a warm cache")

        warm, _ = load_or_capture(ExplodingGuest(), 4, trace_cache=cache)
        assert cache.stats.hits == 1
        assert warm.accesses == cold.accesses
        for config in (GEOMETRIES[0], GEOMETRIES[1]):
            assert replay(warm, config) == replay(cold, config)

    def test_key_separates_sources_and_parameters(self):
        base = dict(workload="FIMI", cores=4, quantum=4096, boot_noise_accesses=8192)
        kernel = log_cache_key(**base, extra={"source": "kernel"})
        synthetic = log_cache_key(
            **base, extra={"source": "synthetic", "accesses": 65536, "scale": "1/256"}
        )
        other_count = log_cache_key(
            **base, extra={"source": "synthetic", "accesses": 1024, "scale": "1/256"}
        )
        assert len({kernel, synthetic, other_count}) == 3

    def test_cli_warm_run_reports_hit(self, tmp_path, capsys):
        argv = [
            "--workload",
            "FIMI",
            "--cores",
            "2",
            "--cache",
            "1MB",
            "--trace-cache",
            str(tmp_path),
        ]
        assert cli.main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "misses=1 stores=1" in cold_out
        assert cli.main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "hits=1 misses=0 stores=0" in warm_out
        # identical readout either way, cache-counter line aside
        strip = lambda text: [
            line for line in text.splitlines() if "trace cache" not in line
        ]
        assert strip(cold_out) == strip(warm_out)

    def test_cli_sweep_over_one_captured_trace(self, tmp_path, capsys):
        argv = [
            "--workload",
            "FIMI",
            "--cores",
            "2",
            "--cache",
            "1MB,4MB",
            "--trace-cache",
            str(tmp_path),
        ]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "Cache-size sweep (2 configurations" in out
        assert "misses=1 stores=1" in out


#: (supervised, trace cache, jobs, configurations) per map shape.
IN_PROCESS_MAPS = {
    "unsupervised-serial": (False, False, None, 2),
    "supervised-serial-cached": (True, True, None, 2),
    "supervised-serial-uncached": (True, False, None, 2),
    "supervised-pool-one-config": (True, False, 2, 1),
}


class TestLogTransport:
    """The log's transport follows the process boundary.  Points that
    run in this process replay the log it holds: nothing is spilled and
    no entry is re-read.  Only a pool map memory-maps an on-disk entry,
    spilling an uncached log first."""

    @pytest.fixture
    def observed(self, monkeypatch):
        """Telemetry on; the entry paths replay points re-read."""
        import repro.harness.replay as replay_module
        from repro.telemetry import runtime as telemetry

        reads = []
        real = replay_module.load_validated_entry

        def counting(entry_dir):
            reads.append(entry_dir)
            return real(entry_dir)

        monkeypatch.setattr(replay_module, "load_validated_entry", counting)
        telemetry.configure()
        try:
            yield reads, telemetry.registry()
        finally:
            telemetry.configure(enabled=False)

    @staticmethod
    def _spec(configs: int):
        from repro.serve.jobspec import JobSpec

        return JobSpec.from_json(
            {"workload": "FIMI", "cores": 2, "source": "synthetic",
             "accesses": 2048, "cache": [MB, 4 * MB][:configs]}
        )

    @pytest.mark.parametrize("shape", IN_PROCESS_MAPS)
    def test_in_process_points_replay_the_held_log(self, shape, observed, tmp_path):
        from repro.harness.supervisor import supervise
        from repro.serve.jobspec import result_digest

        reads, registry = observed
        supervised, cached, jobs, configs = IN_PROCESS_MAPS[shape]
        spec = self._spec(configs)
        cache = TraceCache(tmp_path) if cached else None
        runs = 1
        if cached:
            spec.run(trace_cache=cache)  # fill the cache: the run loads it
            runs = 2
        if supervised:
            with supervise():
                results = spec.run(trace_cache=cache, jobs=jobs)
        else:
            results = spec.run(trace_cache=cache, jobs=jobs)
        assert registry.value("repro_replay_log_spills_total") is None
        assert reads == []
        # Every point replayed here, in this process's registry.
        assert registry.value("repro_replay_points_total") == configs * runs
        assert result_digest(results) == result_digest(spec.run())

    def test_pool_map_spills_an_uncached_log_once(self, observed):
        from repro.serve.jobspec import result_digest

        _, registry = observed
        spec = self._spec(2)
        results = spec.run(jobs=2)
        assert registry.value("repro_replay_log_spills_total") == 1
        assert result_digest(results) == result_digest(spec.run())

    def test_a_failed_point_names_the_log_by_its_key(self, monkeypatch):
        """An unsupervised serial map fails like any other map, and the
        error text, which a served job's ``error`` copies, quotes the
        log's handle without its arrays."""
        import repro.harness.replay as replay_module
        from repro.errors import SweepPointError

        def fail(*args, **kwargs):
            raise ValueError("forced")

        monkeypatch.setattr(replay_module, "replay", fail)
        with pytest.raises(SweepPointError) as excinfo:
            self._spec(1).run()
        assert isinstance(excinfo.value.cause, ValueError)
        assert "_LogHandle(key=" in str(excinfo.value)
        assert "ReplayLog" not in str(excinfo.value)
