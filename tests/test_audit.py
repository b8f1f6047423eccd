"""Runtime invariant auditor: silent corruption must not survive a run.

The auditor exists to catch state that is *internally plausible but
wrong* — a counter bumped by a bit flip, a directory entry lost to a
bad store — so every test here seeds exactly that kind of damage and
demands a named violation, in both failure postures (strict raises
:class:`AuditError`, lenient degrades) and both execution paths (live
co-simulation and replay).
"""

import pickle

import pytest

from repro.audit import (
    AUDIT_ENV,
    AUDIT_FULL,
    AUDIT_OFF,
    AUDIT_SAMPLE,
    resolve_audit_mode,
    run_audit,
)
from repro.audit.report import AuditCheck, AuditReport, make_check
from repro.cache.emulator import DragonheadConfig, DragonheadEmulator
from repro.core.cosim import CoSimPlatform
from repro.errors import AuditError, ConfigurationError
from repro.faults.report import AUDIT
from repro.harness.replay import capture_replay_log, replay
from repro.harness.report import render_audit_report
from repro.units import MB
from repro.workloads.registry import get_workload


def small_guest(name: str = "FIMI"):
    return get_workload(name).synthetic_guest(
        accesses_per_thread=6000, scale=1 / 256
    )


def corrupt_on_readout(monkeypatch, corrupt) -> None:
    """Apply ``corrupt(emulator)`` at readout time — after the run, before
    the audit — modeling a silent in-run corruption of final state."""
    real = DragonheadEmulator.read_performance_data

    def corrupting(self):
        corrupt(self)
        return real(self)

    monkeypatch.setattr(DragonheadEmulator, "read_performance_data", corrupting)


class TestModeResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, AUDIT_FULL)
        assert resolve_audit_mode(AUDIT_OFF) == AUDIT_OFF

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, AUDIT_SAMPLE)
        assert resolve_audit_mode(None) == AUDIT_SAMPLE
        monkeypatch.delenv(AUDIT_ENV)
        assert resolve_audit_mode(None) == AUDIT_OFF

    def test_typo_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="audit mode"):
            resolve_audit_mode("fulll")
        monkeypatch.setenv(AUDIT_ENV, "sampel")
        with pytest.raises(ValueError, match="audit mode"):
            resolve_audit_mode(None)


class TestCleanRuns:
    @pytest.mark.parametrize("mode", [AUDIT_SAMPLE, AUDIT_FULL])
    def test_clean_live_run_passes(self, mode):
        result = CoSimPlatform(DragonheadConfig(cache_size=1 * MB)).run(
            small_guest(), 2, audit=mode
        )
        assert result.audit is not None
        assert result.audit.ok
        assert result.audit.mode == mode
        assert not result.degraded

    def test_audit_off_attaches_nothing(self):
        result = CoSimPlatform(DragonheadConfig(cache_size=1 * MB)).run(
            small_guest(), 2
        )
        assert result.audit is None

    def test_fresh_and_replay_audits_agree(self):
        config = DragonheadConfig(cache_size=1 * MB)
        fresh = CoSimPlatform(config, quantum=512).run(
            small_guest(), 2, audit=AUDIT_FULL
        )
        log = capture_replay_log(small_guest(), 2, quantum=512)
        replayed = replay(log, config, audit=AUDIT_FULL)
        assert replayed.audit == fresh.audit
        assert replayed == fresh

    def test_non_lru_policy_refused(self):
        """The CC FPGAs emulate LRU only, so the emulator refuses any
        other policy at construction."""
        with pytest.raises(ConfigurationError):
            DragonheadConfig(cache_size=1 * MB, policy="fifo")


class TestSeededCorruption:
    def test_counter_corruption_raises_in_strict(self, monkeypatch):
        corrupt_on_readout(monkeypatch, lambda emu: setattr(
            emu.banks[0].stats, "hits", emu.banks[0].stats.hits + 1
        ))
        with pytest.raises(AuditError) as excinfo:
            CoSimPlatform(DragonheadConfig(cache_size=1 * MB)).run(
                small_guest(), 2, audit=AUDIT_FULL
            )
        names = {check.name for check in excinfo.value.report.violations}
        assert "bank-conservation" in names

    def test_counter_corruption_degrades_in_lenient(self, monkeypatch):
        corrupt_on_readout(monkeypatch, lambda emu: setattr(
            emu.banks[0].stats, "misses", emu.banks[0].stats.misses + 2
        ))
        result = CoSimPlatform(
            DragonheadConfig(cache_size=1 * MB), strict=False
        ).run(small_guest(), 2, audit=AUDIT_FULL)
        assert not result.audit.ok
        assert result.degraded
        audit_records = [r for r in result.degradation if r.source == AUDIT]
        assert audit_records
        assert any(r.kind.startswith("audit-") for r in audit_records)

    def test_instruction_counter_corruption_detected(self, monkeypatch):
        def corrupt(emu):
            emu.af.instructions_retired += 1000

        corrupt_on_readout(monkeypatch, corrupt)
        with pytest.raises(AuditError) as excinfo:
            CoSimPlatform(DragonheadConfig(cache_size=1 * MB)).run(
                small_guest(), 2, audit=AUDIT_SAMPLE
            )
        names = {check.name for check in excinfo.value.report.violations}
        assert "instruction-sync" in names

    def test_lost_directory_line_detected(self, monkeypatch):
        def corrupt(emu):
            # Silently drop one resident line from one bank's directory:
            # exactly the store-corruption the occupancy and oracle
            # checks exist to catch.
            for bank in emu.banks:
                kernel = bank._policy
                for ways in kernel._sets:
                    if ways:
                        ways.popitem()
                        return

        corrupt_on_readout(monkeypatch, corrupt)
        with pytest.raises(AuditError) as excinfo:
            CoSimPlatform(DragonheadConfig(cache_size=1 * MB)).run(
                small_guest(), 2, audit=AUDIT_FULL
            )
        names = {check.name for check in excinfo.value.report.violations}
        assert names & {"occupancy", "lru-oracle"}

    def test_replay_corruption_detected_too(self, monkeypatch):
        log = capture_replay_log(small_guest(), 2, quantum=512)
        corrupt_on_readout(monkeypatch, lambda emu: setattr(
            emu.banks[0].stats, "reads", emu.banks[0].stats.reads + 1
        ))
        with pytest.raises(AuditError):
            replay(log, DragonheadConfig(cache_size=1 * MB), audit=AUDIT_SAMPLE)


class TestReportPlumbing:
    def test_report_shapes(self):
        good = AuditCheck(name="a", ok=True)
        bad = make_check("b", ["broke"])
        report = AuditReport(mode=AUDIT_SAMPLE, checks=(good, bad))
        assert not report.ok
        assert [c.name for c in report.violations] == ["b"]
        records = report.degradation_records()
        assert len(records) == 1
        assert records[0].kind == "audit-b" and records[0].source == AUDIT
        assert "b" in report.describe()

    def test_detail_clamped(self):
        check = make_check("big", ["x" * 10_000])
        assert len(check.detail) < 1000

    def test_audit_error_survives_pickling(self):
        report = AuditReport(
            mode=AUDIT_FULL, checks=(make_check("b", ["broke"]),)
        )
        error = pickle.loads(pickle.dumps(AuditError(report)))
        assert error.report == report
        assert "b" in str(error)

    def test_render_audit_report(self):
        result = CoSimPlatform(DragonheadConfig(cache_size=1 * MB)).run(
            small_guest(), 2, audit=AUDIT_SAMPLE
        )
        text = render_audit_report([result])
        assert "1/1 runs audited" in text
        assert "0 violation(s)" in text
        assert "no runs were audited" in render_audit_report([])

    def test_run_audit_direct(self):
        platform = CoSimPlatform(DragonheadConfig(cache_size=1 * MB))
        result = platform.run(small_guest(), 2)
        report = run_audit(
            platform.emulator, result.performance, mode=AUDIT_SAMPLE
        )
        assert report.ok


class TestOracleSampling:
    """The tap's single-AND fast sample path equals the generic predicate."""

    @pytest.mark.parametrize("num_sets", [1, 4, 64, 1024])
    @pytest.mark.parametrize("every", [1, 2, 64, 128])
    def test_fast_path_matches_generic_predicate(self, num_sets, every):
        import numpy as np

        from repro.audit.oracle import OracleTap

        lines = np.arange(4096, dtype=np.uint64) * np.uint64(2654435761)
        fast = OracleTap(
            num_sets=num_sets, associativity=4, num_banks=4, bank_shift=2,
            every=every,
        )
        generic = OracleTap(
            num_sets=num_sets, associativity=4, num_banks=4, bank_shift=2,
            every=every,
        )
        assert fast._fast_mask is not None
        generic._fast_mask = None  # force the modulo predicate
        fast.observe(lines)
        generic.observe(lines)
        assert fast.observed == generic.observed
        assert sorted(fast._policies) == sorted(generic._policies)
        for key, policy in fast._policies.items():
            assert policy.resident_tags(0) == generic._policies[
                key
            ].resident_tags(0)

    def test_non_power_of_two_interval_uses_generic_path(self):
        from repro.audit.oracle import OracleTap

        tap = OracleTap(
            num_sets=64, associativity=4, num_banks=4, bank_shift=2, every=3
        )
        assert tap._fast_mask is None
