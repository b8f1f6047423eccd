"""Tests for the fault-injection framework.

Covers the FAULTSPEC parser, the determinism contract (same seed →
identical faults and identical statistics, regardless of worker count),
the injector's per-channel behavior, the lenient AF resynchronization
paths against their strict counterparts, missed-window interpolation,
and trace-cache corruption → quarantine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.emulator import AddressFilter, DragonheadConfig, DragonheadEmulator
from repro.cache.sampling import WindowSampler
from repro.errors import FaultInjectionError, RecoverableProtocolError
from repro.faults import FaultInjector, FaultSpec, inject_trace_corruption
from repro.faults.report import (
    INJECTED,
    RECOVERED,
    DegradationRecord,
    merge_records,
    records_from_counts,
)
from repro.faults.spec import parse_fault_spec
from repro.harness.replay import capture_replay_log, log_cache_key, replay, replay_map
from repro.protocol import MESSAGE_BASE, Message, MessageCodec, MessageKind
from repro.trace.cache import TraceCache
from repro.trace.generators import Region, cyclic_scan
from repro.units import MB
from repro.workloads.registry import get_workload


def send(port, message):
    for address in MessageCodec.encode(message):
        from repro.core.fsb import FSBTransaction
        from repro.trace.record import AccessKind

        port.snoop(FSBTransaction(address=address, kind=AccessKind.WRITE))


class TestFaultSpec:
    def test_parse_full_spec(self):
        spec = FaultSpec.parse(
            "seed=42,drop-data=0.001,dup-data=0.002,drop-msg=0.01,"
            "reorder-msg=0.03,miss-window=0.05,corrupt-trace=2,"
            "crash=0.1,hang=0.2,hang-seconds=1.5"
        )
        assert spec.seed == 42
        assert spec.drop_data == 0.001
        assert spec.dup_data == 0.002
        assert spec.drop_message == 0.01
        assert spec.reorder_message == 0.03
        assert spec.miss_window == 0.05
        assert spec.corrupt_trace == 2
        assert spec.crash == 0.1
        assert spec.hang == 0.2
        assert spec.hang_seconds == 1.5

    def test_parse_empty_disables(self):
        assert parse_fault_spec(None) is None
        assert parse_fault_spec("   ") is None

    def test_unknown_channel_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault channel"):
            FaultSpec.parse("seed=1,drop-everything=0.5")

    def test_bad_value_rejected(self):
        with pytest.raises(FaultInjectionError, match="needs a float"):
            FaultSpec.parse("drop-data=lots")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(FaultInjectionError, match=r"in \[0, 1\]"):
            FaultSpec.parse("drop-msg=1.5")

    def test_negative_corrupt_count_rejected(self):
        with pytest.raises(FaultInjectionError, match="non-negative"):
            FaultSpec.parse("corrupt-trace=-1")

    def test_touches_bus(self):
        assert FaultSpec(miss_window=0.1).touches_bus
        assert not FaultSpec(crash=0.5, corrupt_trace=3).touches_bus

    def test_rng_deterministic_per_scope(self):
        spec = FaultSpec(seed=3)
        a = spec.rng("point-a").random(8)
        b = spec.rng("point-a").random(8)
        c = spec.rng("point-b").random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_harness_fault_deterministic(self):
        spec = FaultSpec(seed=11, crash=0.3, hang=0.3)
        fates = [spec.harness_fault(f"k{i}") for i in range(64)]
        assert fates == [spec.harness_fault(f"k{i}") for i in range(64)]
        assert "crash" in fates and "hang" in fates and None in fates


class TestDegradationRecords:
    def test_records_from_counts_drops_zeros_and_sorts(self):
        records = records_from_counts({"b": 2, "a": 1, "z": 0}, INJECTED)
        assert [r.source for r in records] == [INJECTED, INJECTED]
        assert [(r.kind, r.count) for r in records] == [("a", 1), ("b", 2)]

    def test_merge_sums_matching_records(self):
        one = records_from_counts({"drop": 2}, INJECTED)
        two = records_from_counts({"drop": 3}, INJECTED)
        other = records_from_counts({"drop": 1}, RECOVERED)
        merged = merge_records(one, two, other)
        by_source = {r.source: r.count for r in merged}
        assert by_source == {INJECTED: 5, RECOVERED: 1}


class TestLenientResync:
    """Each AF anomaly: strict raises, lenient recovers and counts."""

    def _filter(self, strict):
        af = AddressFilter(strict=strict)
        af.handle_message(MessageCodec.encode(Message(MessageKind.START_EMULATION))[0])
        return af

    def test_spurious_start_keeps_window_open(self):
        af = self._filter(strict=False)
        af.instructions_retired = 500
        af.handle_message(MessageCodec.encode(Message(MessageKind.START_EMULATION))[0])
        assert af.emulating
        assert af.instructions_retired == 500  # no session reset
        assert af.anomalies == {"spurious-start": 1}
        with pytest.raises(RecoverableProtocolError):
            self._filter(strict=True).handle_message(
                MessageCodec.encode(Message(MessageKind.START_EMULATION))[0]
            )

    def test_orphan_stop_dropped(self):
        stop = MessageCodec.encode(Message(MessageKind.STOP_EMULATION))[0]
        af = AddressFilter(strict=False)
        af.handle_message(stop)
        assert not af.emulating
        assert af.anomalies == {"orphan-stop": 1}
        with pytest.raises(RecoverableProtocolError):
            AddressFilter(strict=True).handle_message(stop)

    def test_counter_regression_keeps_high_water(self):
        af = self._filter(strict=False)
        af.handle_message(
            MessageCodec.encode(Message(MessageKind.INSTRUCTIONS_RETIRED, 1000))[0]
        )
        af.handle_message(
            MessageCodec.encode(Message(MessageKind.INSTRUCTIONS_RETIRED, 400))[0]
        )
        assert af.instructions_retired == 1000
        assert af.anomalies == {"counter-regression": 1}
        strict = self._filter(strict=True)
        strict.handle_message(
            MessageCodec.encode(Message(MessageKind.INSTRUCTIONS_RETIRED, 1000))[0]
        )
        with pytest.raises(RecoverableProtocolError):
            strict.handle_message(
                MessageCodec.encode(Message(MessageKind.INSTRUCTIONS_RETIRED, 400))[0]
            )

    def test_undecodable_message_discarded(self):
        bogus = MESSAGE_BASE | (0x7F << 40)  # opcode outside MessageKind
        af = AddressFilter(strict=False)
        assert af.handle_message(bogus) is None
        assert af.anomalies == {"decode-error": 1}
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            AddressFilter(strict=True).handle_message(bogus)


class TestWindowInterpolation:
    def test_multi_boundary_delta_is_spread(self):
        plain = WindowSampler(frequency_hz=1e6, interval_us=1.0)  # 1 cycle/window
        lenient = WindowSampler(frequency_hz=1e6, interval_us=1.0, interpolate=True)
        for sampler in (plain, lenient):
            sampler.advance(3, 300, 90, 9)  # one report crossing 3 windows
        # Default: one fat window then empties; lenient: an even split.
        assert [s.instructions for s in plain.samples] == [300, 0, 0]
        assert [s.instructions for s in lenient.samples] == [100, 100, 100]
        assert [s.misses for s in lenient.samples] == [3, 3, 3]
        assert lenient.interpolated_windows == 2
        # Totals conserved either way.
        assert sum(s.instructions for s in lenient.samples) == 300
        assert sum(s.accesses for s in lenient.samples) == 90

    def test_remainder_goes_to_earliest_windows(self):
        sampler = WindowSampler(frequency_hz=1e6, interval_us=1.0, interpolate=True)
        sampler.advance(3, 7, 7, 0)
        assert [s.accesses for s in sampler.samples] == [3, 2, 2]


class TestInjector:
    def _emulator(self):
        return DragonheadEmulator(DragonheadConfig(cache_size=1 * MB), strict=False)

    def test_dropped_data_never_reaches_the_banks(self):
        emulator = self._emulator()
        injector = FaultInjector(emulator, FaultSpec(seed=1, drop_data=1.0))
        send(injector, Message(MessageKind.START_EMULATION))
        injector.snoop_chunk(cyclic_scan(Region(0, 64 * 1024), passes=1, stride=64))
        assert emulator.stats.accesses == 0
        assert injector.counts["data-drop"] == 1024

    def test_duplicated_data_doubles_accesses(self):
        baseline = self._emulator()
        send(baseline, Message(MessageKind.START_EMULATION))
        chunk = cyclic_scan(Region(0, 64 * 1024), passes=1, stride=64)
        baseline.snoop_chunk(chunk)

        emulator = self._emulator()
        injector = FaultInjector(emulator, FaultSpec(seed=1, dup_data=1.0))
        send(injector, Message(MessageKind.START_EMULATION))
        injector.snoop_chunk(chunk)
        assert emulator.stats.accesses == 2 * baseline.stats.accesses
        assert injector.counts["data-dup"] == len(chunk)

    def test_dropped_stop_recovers_leniently(self):
        emulator = self._emulator()
        injector = FaultInjector(emulator, FaultSpec(seed=1, drop_message=1.0))
        send(injector, Message(MessageKind.STOP_EMULATION))
        assert injector.counts == {"msg-drop": 1}
        assert emulator.af.anomalies == {}  # never even saw it

    def test_injected_records_report_as_injected(self):
        injector = FaultInjector(self._emulator(), FaultSpec(seed=1, drop_data=1.0))
        send(injector, Message(MessageKind.START_EMULATION))
        injector.snoop_chunk(cyclic_scan(Region(0, 4096), passes=1, stride=64))
        (record,) = injector.records
        assert record == DegradationRecord("data-drop", INJECTED, 64)


class TestSeededReplayDeterminism:
    SPEC = FaultSpec.parse(
        "seed=42,drop-data=0.002,dup-data=0.001,drop-msg=0.05,"
        "reorder-msg=0.05,miss-window=0.2"
    )

    def test_same_seed_same_stats_and_records(self):
        workload = get_workload("FIMI")
        log = capture_replay_log(workload.kernel_guest(), cores=2)
        config = DragonheadConfig(cache_size=1 * MB)
        first = replay(log, config, spec=self.SPEC, lenient=True)
        second = replay(log, config, spec=self.SPEC, lenient=True)
        assert first == second
        assert first.degraded
        assert any(r.source == INJECTED for r in first.degradation)

    def test_worker_count_does_not_change_faults(self):
        workload = get_workload("FIMI")
        log = capture_replay_log(workload.kernel_guest(), cores=2)
        configs = [DragonheadConfig(cache_size=s) for s in (1 * MB, 2 * MB, 4 * MB)]
        serial = replay_map(log, configs, spec=self.SPEC, lenient=True)
        fanned = replay_map(log, configs, jobs=3, spec=self.SPEC, lenient=True)
        assert serial == fanned

    def test_different_seed_different_faults(self):
        workload = get_workload("FIMI")
        log = capture_replay_log(workload.kernel_guest(), cores=2)
        config = DragonheadConfig(cache_size=1 * MB)
        import dataclasses

        other = dataclasses.replace(self.SPEC, seed=43)
        first = replay(log, config, spec=self.SPEC, lenient=True)
        second = replay(log, config, spec=other, lenient=True)
        assert first.degradation != second.degradation

    def test_strict_fault_free_replay_unchanged(self):
        workload = get_workload("FIMI")
        log = capture_replay_log(workload.kernel_guest(), cores=2)
        config = DragonheadConfig(cache_size=1 * MB)
        assert replay(log, config) == replay(log, config, spec=None, lenient=False)
        assert not replay(log, config).degraded


class TestTraceCorruption:
    def test_flip_is_caught_quarantined_and_regenerated(self, tmp_path):
        cache = TraceCache(tmp_path)
        workload = get_workload("FIMI")
        guest = workload.synthetic_guest(accesses_per_thread=2048, scale=1 / 256)
        key = log_cache_key(guest.name, 2, 4096, 8192, {"t": 1})
        log = capture_replay_log(guest, cores=2)
        cache.store(key, *log.to_payload())

        spec = FaultSpec(seed=5, corrupt_trace=1)
        assert inject_trace_corruption(cache, key, spec.rng("corrupt-trace", 0))
        assert cache.load(key) is None  # CRC catches the flip
        assert cache.stats.corrupt == 1
        assert cache.stats.quarantined == 1
        assert "quarantined=1" in cache.stats.describe()
        quarantined = list(tmp_path.glob("*/*.corrupt"))
        assert len(quarantined) == 1
        # The key is free again: a republish then loads cleanly.
        cache.store(key, *log.to_payload())
        assert cache.load(key) is not None

    def test_corrupting_a_missing_entry_is_a_noop(self, tmp_path):
        cache = TraceCache(tmp_path)
        spec = FaultSpec(seed=5)
        assert not inject_trace_corruption(cache, "ab" * 32, spec.rng("x"))
