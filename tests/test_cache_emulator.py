"""Tests for the Dragonhead emulator model."""

import pytest

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.emulator import NUM_BANKS, DragonheadConfig, DragonheadEmulator
from repro.core.fsb import FSBTransaction
from repro.errors import ConfigurationError, ProtocolError
from repro.protocol import Message, MessageCodec, MessageKind
from repro.trace.generators import Region, cyclic_scan, uniform_random
from repro.trace.record import AccessKind, TraceChunk
from repro.units import KB, MB


def send(emulator: DragonheadEmulator, message: Message) -> None:
    for address in MessageCodec.encode(message):
        emulator.snoop(FSBTransaction(address=address, kind=AccessKind.WRITE))


def start(emulator: DragonheadEmulator, core: int = 0) -> None:
    send(emulator, Message(MessageKind.START_EMULATION))
    send(emulator, Message(MessageKind.CORE_ID, core))


class TestConfigurationLimits:
    def test_hardware_envelope_enforced(self):
        with pytest.raises(ConfigurationError):
            DragonheadConfig(cache_size=512 * KB)  # below 1MB minimum
        with pytest.raises(ConfigurationError):
            DragonheadConfig(cache_size=512 * MB)  # above 256MB maximum
        with pytest.raises(ConfigurationError):
            DragonheadConfig(cache_size=4 * MB, line_size=32)
        with pytest.raises(ConfigurationError):
            DragonheadConfig(cache_size=4 * MB, line_size=8192)

    def test_supported_corners(self):
        DragonheadConfig(cache_size=1 * MB, line_size=64)
        DragonheadConfig(cache_size=256 * MB, line_size=4096)

    def test_bank_geometry(self):
        config = DragonheadConfig(cache_size=4 * MB)
        for bank in range(NUM_BANKS):
            bank_config = config.bank_config(bank)
            assert bank_config.size == 1 * MB


class TestWindowGating:
    def test_traffic_outside_window_filtered(self):
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        emulator.snoop_chunk(TraceChunk([0x100, 0x200]))
        assert emulator.stats.accesses == 0
        assert emulator.af.filtered_transactions == 2

    def test_traffic_inside_window_emulated(self):
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        start(emulator)
        emulator.snoop_chunk(TraceChunk([0x100, 0x200]))
        assert emulator.stats.accesses == 2

    def test_stop_reopens_filtering(self):
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        start(emulator)
        emulator.snoop_chunk(TraceChunk([0x100]))
        send(emulator, Message(MessageKind.STOP_EMULATION))
        emulator.snoop_chunk(TraceChunk([0x200]))
        assert emulator.stats.accesses == 1
        assert emulator.af.filtered_transactions == 1

    def test_double_start_is_protocol_error(self):
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        start(emulator)
        with pytest.raises(ProtocolError):
            send(emulator, Message(MessageKind.START_EMULATION))

    def test_stop_without_start_is_protocol_error(self):
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        with pytest.raises(ProtocolError):
            send(emulator, Message(MessageKind.STOP_EMULATION))

    def test_counter_regression_is_protocol_error(self):
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        send(emulator, Message(MessageKind.INSTRUCTIONS_RETIRED, 100))
        with pytest.raises(ProtocolError):
            send(emulator, Message(MessageKind.INSTRUCTIONS_RETIRED, 50))


class TestCoreTagging:
    def test_core_id_attributes_traffic(self):
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        start(emulator, core=3)
        emulator.snoop_chunk(TraceChunk([0x100]))
        send(emulator, Message(MessageKind.CORE_ID, 7))
        emulator.snoop_chunk(TraceChunk([0x200]))
        stats = emulator.stats
        assert stats.per_core_accesses == {3: 1, 7: 1}


class TestEmulationCorrectness:
    def test_matches_monolithic_cache(self):
        """Four banked slices behave exactly like one shared cache."""
        import numpy as np

        chunk = uniform_random(
            Region(0, 8 * MB), count=20000, rng=np.random.default_rng(23)
        )
        emulator = DragonheadEmulator(
            DragonheadConfig(cache_size=1 * MB, associativity=16)
        )
        start(emulator)
        emulator.snoop_chunk(chunk)
        # Reference: same total capacity, same associativity, banked by hand.
        reference_banks = [
            SetAssociativeCache(
                CacheConfig(size=256 * KB, line_size=64, associativity=16)
            )
            for _ in range(4)
        ]
        lines = chunk.lines(64)
        for line in lines:
            line = int(line)
            reference_banks[line % 4].access_line(line >> 2)
        reference_misses = sum(b.stats.misses for b in reference_banks)
        assert emulator.stats.misses == reference_misses

    def test_working_set_capture(self):
        """A working set under the emulated size stops missing."""
        trace = cyclic_scan(Region(0, 512 * KB), passes=4, stride=64)
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=2 * MB))
        start(emulator)
        emulator.snoop_chunk(trace)
        data = emulator.read_performance_data()
        cold_lines = 512 * KB // 64
        assert data.stats.misses == cold_lines

    def test_mpki_uses_retired_instructions(self):
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        start(emulator)
        emulator.snoop_chunk(TraceChunk([i * 64 for i in range(100)]))
        send(emulator, Message(MessageKind.INSTRUCTIONS_RETIRED, 10_000))
        data = emulator.read_performance_data()
        assert data.mpki == pytest.approx(100 / 10_000 * 1000)

    def test_line_size_reduces_streaming_misses(self):
        trace = cyclic_scan(Region(0, 4 * MB), passes=1, stride=64)
        misses = []
        for line_size in (64, 256):
            emulator = DragonheadEmulator(
                DragonheadConfig(cache_size=1 * MB, line_size=line_size)
            )
            start(emulator)
            emulator.snoop_chunk(trace)
            misses.append(emulator.stats.misses)
        assert misses[0] == pytest.approx(4 * misses[1], rel=0.01)


class TestSampling:
    def test_windows_emitted_on_cycle_progress(self):
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        start(emulator)
        cycles_per_window = emulator.sampler.cycles_per_window
        for window in range(1, 4):
            emulator.snoop_chunk(TraceChunk([i * 64 for i in range(10)]))
            send(emulator, Message(MessageKind.INSTRUCTIONS_RETIRED, window * 1000))
            send(
                emulator,
                Message(MessageKind.CYCLES_COMPLETED, window * cycles_per_window),
            )
        data = emulator.read_performance_data()
        assert len(data.samples) == 3
        assert all(s.instructions == 1000 for s in data.samples)


class TestBankShift:
    def test_shift_derived_from_bank_count(self):
        from repro.cache.emulator import BANK_SHIFT

        assert BANK_SHIFT == NUM_BANKS.bit_length() - 1

    def test_non_power_of_two_bank_count_is_refused(self):
        """bit_length()-1 under-shifts for non-power-of-two counts, which
        would silently collide distinct lines inside a bank — the guard
        must refuse such a configuration outright."""
        from repro.cache.emulator import derive_bank_shift

        assert derive_bank_shift(1) == 0
        assert derive_bank_shift(4) == 2
        assert derive_bank_shift(16) == 4
        for bad in (0, -4, 3, 5, 6, 7, 12):
            with pytest.raises(ConfigurationError):
                derive_bank_shift(bad)

    def test_scalar_and_chunk_paths_agree(self):
        """snoop() per transaction equals snoop_chunk(), bank by bank."""
        import numpy as np

        chunk = uniform_random(
            Region(0, 4 * MB), count=8192, rng=np.random.default_rng(51)
        )
        config = DragonheadConfig(cache_size=1 * MB)
        by_chunk = DragonheadEmulator(config)
        by_scalar = DragonheadEmulator(config)
        start(by_chunk)
        start(by_scalar)
        by_chunk.snoop_chunk(chunk)
        for address, kind in zip(chunk.addresses.tolist(), chunk.kinds.tolist()):
            by_scalar.snoop(FSBTransaction(address=address, kind=AccessKind(kind)))
        for bank_chunk, bank_scalar in zip(by_chunk.banks, by_scalar.banks):
            assert bank_chunk.stats.misses == bank_scalar.stats.misses
            assert bank_chunk.stats.accesses == bank_scalar.stats.accesses


class TestReconfigure:
    def test_reconfigure_clears_all_emulation_state(self):
        """A reconfigure must behave exactly like a fresh emulator."""
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        start(emulator)
        emulator.snoop_chunk(
            cyclic_scan(Region(0, 256 * KB), passes=2, stride=64)
        )
        send(emulator, Message(MessageKind.INSTRUCTIONS_RETIRED, 5000))
        assert emulator.stats.accesses > 0

        new_config = DragonheadConfig(cache_size=2 * MB, line_size=128)
        emulator.reconfigure(new_config)
        assert emulator.config == new_config
        assert emulator.stats.accesses == 0
        assert emulator.af.instructions_retired == 0
        assert not emulator.af.emulating
        assert emulator.sampler.samples == []
        assert all(bank.stats.accesses == 0 for bank in emulator.banks)
        assert all(
            bank.config.line_size == 128 and bank.config.size == 512 * KB
            for bank in emulator.banks
        )
        # No residency may leak: re-running the same trace cold-misses.
        start(emulator)
        trace = cyclic_scan(Region(0, 256 * KB), passes=1, stride=128)
        emulator.snoop_chunk(trace)
        fresh = DragonheadEmulator(new_config)
        start(fresh)
        fresh.snoop_chunk(trace)
        assert emulator.stats.misses == fresh.stats.misses

    def test_reconfigure_matches_new_instance_after_session(self):
        emulator = DragonheadEmulator(DragonheadConfig(cache_size=1 * MB))
        start(emulator)
        emulator.snoop_chunk(
            uniform_random(Region(0, 2 * MB), count=4096)
        )
        send(emulator, Message(MessageKind.STOP_EMULATION))
        config = DragonheadConfig(cache_size=4 * MB)
        emulator.reconfigure(config)
        data = emulator.read_performance_data()
        assert data.stats.accesses == 0
        assert data.instructions_retired == 0
        assert data.filtered_transactions == 0
