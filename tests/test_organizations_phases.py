"""Tests for the shared/private LLC study and phase detection."""

import pytest

from repro.cache.organizations import (
    compare_organizations,
    organization_study,
    private_llc_mpki,
    shared_llc_mpki,
)
from repro.cache.sampling import WindowSample
from repro.core.phases import detect_phases, phase_summary, representative_window
from repro.errors import ConfigurationError
from repro.units import MB
from repro.workloads.profiles import memory_model


class TestOrganizations:
    def test_single_core_organizations_coincide(self):
        """With one core there is no sharing: both organizations equal."""
        model = memory_model("FIMI")
        shared = shared_llc_mpki(model, 8 * MB, 1)
        private = private_llc_mpki(model, 8 * MB, 1)
        assert shared == pytest.approx(private, rel=0.02)

    def test_shared_wins_for_shared_heavy_workloads(self):
        """Category A: replication wastes nearly all private capacity."""
        for name in ("SNP", "MDS"):
            comparison = compare_organizations(name, 32 * MB, 16)
            assert not comparison.private_wins, name

    def test_private_wins_for_private_heavy_workloads(self):
        """Category C at matched total capacity: an interference-free
        slice beats the shared pool once slices still hold the working
        set."""
        comparison = compare_organizations("SHOT", 64 * MB, 8)
        # 8MB/core private slice holds SHOT's ~3.4MB/thread set without
        # any cross-thread dilation.
        assert comparison.private_mpki <= comparison.shared_mpki + 0.01

    def test_study_covers_everyone(self):
        study = organization_study(32 * MB, 16)
        assert len(study) == 8
        assert all(c.winner in ("shared", "private") for c in study)

    def test_rejects_bad_cores(self):
        with pytest.raises(ConfigurationError):
            private_llc_mpki(memory_model("FIMI"), 8 * MB, 0)


def make_samples(mpkis, instructions=1000):
    return [
        WindowSample(index=i, cycles=1000, instructions=instructions,
                     accesses=500, misses=int(m * instructions / 1000))
        for i, m in enumerate(mpkis)
    ]


class TestPhaseDetection:
    def test_single_stable_phase(self):
        samples = make_samples([10, 10, 11, 10, 9, 10])
        phases = detect_phases(samples)
        assert len(phases) == 1
        assert phases[0].windows == 6
        assert phases[0].mean_mpki == pytest.approx(10.0, rel=0.1)

    def test_two_phases_detected(self):
        samples = make_samples([10] * 6 + [40] * 6)
        phases = detect_phases(samples)
        assert len(phases) == 2
        assert phases[0].end_window == 6
        assert phases[1].mean_mpki == pytest.approx(40.0, rel=0.1)

    def test_single_spike_absorbed(self):
        samples = make_samples([10, 10, 45, 10, 10, 10])
        phases = detect_phases(samples, confirm=2)
        assert len(phases) == 1

    def test_three_stage_run(self):
        """The FIMI shape: scan, build, mine at different intensities."""
        samples = make_samples([5] * 5 + [25] * 5 + [12] * 5)
        phases = detect_phases(samples)
        assert len(phases) == 3
        means = [p.mean_mpki for p in phases]
        assert means[1] == max(means)

    def test_empty(self):
        assert detect_phases([]) == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            detect_phases(make_samples([1.0]), threshold=0)

    def test_representative_window_minimizes_distance(self):
        samples = make_samples([10, 14, 10, 6, 10])
        phases = detect_phases(samples, threshold=0.9)
        representative = representative_window(samples, phases[0])
        assert samples[representative].mpki == pytest.approx(
            phases[0].mean_mpki, rel=0.15
        )

    def test_phase_summary_pairs(self):
        samples = make_samples([10] * 4 + [30] * 4)
        summary = phase_summary(samples)
        assert len(summary) == 2
        for phase, representative in summary:
            assert phase.start_window <= representative < phase.end_window

    def test_instructions_accounted(self):
        samples = make_samples([10] * 4 + [30] * 4)
        phases = detect_phases(samples)
        assert sum(p.instructions for p in phases) == 8 * 1000


class TestBandwidthStudy:
    def test_generate_covers_cmps_and_workloads(self):
        from repro.harness import bandwidth_study

        rows = bandwidth_study.generate()
        assert len(rows) == 3 * 8
        assert all(r.demand_gb_per_s >= 0 for r in rows)

    def test_demand_grows_with_cores(self):
        from repro.harness import bandwidth_study
        from repro.core.experiment import LCMP, SCMP

        scmp = {r.workload: r for r in bandwidth_study.generate(cmps=(SCMP,))}
        lcmp = {r.workload: r for r in bandwidth_study.generate(cmps=(LCMP,))}
        for name in ("SHOT", "VIEWTYPE"):
            assert lcmp[name].demand_gb_per_s > scmp[name].demand_gb_per_s

    def test_main_prints(self, capsys):
        from repro.harness import bandwidth_study

        bandwidth_study.main()
        output = capsys.readouterr().out
        assert "bandwidth demand" in output
        assert "GB/s" in output


class TestCosimCLI:
    def test_kernel_run(self, capsys):
        from repro.harness.cli import main

        assert main(["--workload", "PLSA", "--cores", "2", "--cache", "1MB"]) == 0
        output = capsys.readouterr().out
        assert "LLC MPKI" in output

    def test_synthetic_run_with_phases(self, capsys):
        from repro.harness.cli import main

        code = main(
            [
                "--workload", "FIMI", "--cores", "2", "--cache", "1MB",
                "--source", "synthetic", "--accesses", "20000",
                "--scale", "1/64", "--phases",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Phase analysis" in output

    def test_rejects_unknown_workload(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["--workload", "NOPE"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--executor", "shard"],
            ["--executor", "pool"],
            ["--shards", "2"],
            ["--lease-ttl", "30"],
        ],
        ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv),
    )
    def test_removed_executor_flags_exit_2(self, argv, capsys):
        # Sweeps run in-process or on the one local pool; there is no
        # executor to choose.
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--workload", "FIMI", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
