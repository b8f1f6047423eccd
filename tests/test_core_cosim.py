"""Integration tests: SoftSDV + Dragonhead co-simulation."""

import pytest

from repro.cache.emulator import DragonheadConfig
from repro.core.cosim import CoSimPlatform
from repro.core.softsdv import MAX_HW_THREADS, GuestWorkload, SoftSDV
from repro.core.fsb import FrontSideBus
from repro.errors import ConfigurationError
from repro.harness.replay import replay_sweep, size_sweep_configs
from repro.trace.generators import Region, cyclic_scan
from repro.trace.stream import chunk_stream
from repro.units import KB, MB


def scan_workload(region_kb: int = 256, passes: int = 4) -> GuestWorkload:
    """Each thread cyclically scans its own private region."""

    def thread_streams(n):
        return [
            chunk_stream(
                cyclic_scan(
                    Region(0x1000_0000 + i * 0x100_0000, region_kb * 1024),
                    passes=passes,
                    stride=64,
                )
            )
            for i in range(n)
        ]

    return GuestWorkload(name="scan", thread_streams=thread_streams)


class TestSoftSDV:
    def test_thread_count_limit(self):
        softsdv = SoftSDV(FrontSideBus())
        with pytest.raises(ConfigurationError):
            softsdv.run_workload(scan_workload(), MAX_HW_THREADS + 1)

    def test_stream_count_mismatch_rejected(self):
        bad = GuestWorkload(name="bad", thread_streams=lambda n: [])
        with pytest.raises(ConfigurationError):
            SoftSDV(FrontSideBus()).run_workload(bad, 2)


class TestCoSimPlatform:
    def test_run_produces_synchronized_stats(self):
        platform = CoSimPlatform(DragonheadConfig(cache_size=1 * MB))
        result = platform.run(scan_workload(region_kb=128, passes=2), cores=2)
        # 2 threads x 128KB/64B x 2 passes accesses
        assert result.accesses == 2 * 2048 * 2
        assert result.instructions == result.accesses * 2
        assert result.mpki > 0

    def test_os_noise_filtered(self):
        platform = CoSimPlatform(
            DragonheadConfig(cache_size=1 * MB), boot_noise_accesses=500
        )
        result = platform.run(scan_workload(region_kb=64, passes=1), cores=1)
        assert result.filtered == 1000  # 500 before START + 500 after STOP
        assert result.accesses == 1024  # noise not emulated

    def test_cold_misses_only_when_fits(self):
        platform = CoSimPlatform(DragonheadConfig(cache_size=4 * MB))
        result = platform.run(scan_workload(region_kb=256, passes=4), cores=2)
        assert result.llc_stats.misses == 2 * 4096  # cold lines only

    def test_thrash_when_oversubscribed(self):
        platform = CoSimPlatform(DragonheadConfig(cache_size=1 * MB))
        result = platform.run(scan_workload(region_kb=1024, passes=2), cores=2)
        assert result.llc_stats.miss_ratio > 0.95

    def test_samples_collected(self):
        platform = CoSimPlatform(DragonheadConfig(cache_size=1 * MB))
        result = platform.run(scan_workload(region_kb=256, passes=2), cores=2)
        assert len(result.samples) >= 1
        assert sum(s.accesses for s in result.samples) == result.accesses


class TestCoSimSweep:
    def test_sweep_is_monotone_for_scans(self):
        results = replay_sweep(
            scan_workload(region_kb=768, passes=3),
            2,
            size_sweep_configs([1 * MB, 2 * MB, 4 * MB]),
        )
        mpkis = [result.mpki for result in results]
        assert mpkis == sorted(mpkis, reverse=True)
        # 1MB < 2x768KB working set → thrash; 2MB and up capture
        # everything but cold misses.
        assert mpkis[0] > 2.5 * mpkis[2]
        assert mpkis[1] == pytest.approx(mpkis[2])
