"""Tests for the Workload abstraction: kernels, synthetic traces, guests."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.harness.replay import capture_replay_log
from repro.trace.stats import footprint_bytes
from repro.workloads import WORKLOAD_NAMES, all_workloads, get_workload
from repro.workloads.base import PRIVATE_THREAD_SPACING, SHARED_ARENA_BASE

#: Workloads whose threads all call the kernel with equal arguments on
#: one arena base; the others differ per thread.
ONE_KERNEL_PER_CAPTURE = {"SNP", "SVM-RFE", "MDS", "RSEARCH"}
TRACE_COLUMNS = ("addresses", "kinds", "cores", "pcs")


def counting_kernel(workload, calls: list):
    """``workload`` with a kernel that appends its arguments to ``calls``."""

    def kernel(recorder, arena, **args):
        calls.append(args)
        return workload.kernel(recorder, arena, **args)

    return dataclasses.replace(workload, kernel=kernel)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in WORKLOAD_NAMES:
            assert get_workload(name).name == name

    def test_case_insensitive(self):
        assert get_workload("fimi").name == "FIMI"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_workload("APRIORI")

    def test_all_workloads_in_table_order(self):
        assert [w.name for w in all_workloads()] == list(WORKLOAD_NAMES)

    def test_metadata_present(self):
        for workload in all_workloads():
            assert workload.description
            assert workload.table1_parameters
            assert workload.category in "ABC"


class TestKernelRuns:
    @pytest.mark.parametrize("name", list(WORKLOAD_NAMES))
    def test_every_kernel_runs_and_traces(self, name):
        run = get_workload(name).run_kernel()
        assert run.accesses > 100
        assert run.instructions >= run.accesses
        assert run.apki > 0

    def test_category_a_threads_share_addresses(self):
        """SNP threads reference the same genotype matrix addresses."""
        workload = get_workload("SNP")
        run0 = workload.run_kernel(thread_id=0, threads=2)
        run1 = workload.run_kernel(thread_id=1, threads=2)
        lines0 = set(np.unique(run0.trace.lines(64)).tolist())
        lines1 = set(np.unique(run1.trace.lines(64)).tolist())
        overlap = len(lines0 & lines1) / len(lines0 | lines1)
        assert overlap > 0.9

    def test_category_c_threads_disjoint_addresses(self):
        """SHOT threads own disjoint frame buffers."""
        workload = get_workload("SHOT")
        run0 = workload.run_kernel(thread_id=0, threads=2)
        run1 = workload.run_kernel(thread_id=1, threads=2)
        lines0 = set(np.unique(run0.trace.lines(64)).tolist())
        lines1 = set(np.unique(run1.trace.lines(64)).tolist())
        assert not (lines0 & lines1)

    def test_arena_bases_by_category(self):
        shot = get_workload("SHOT")
        assert shot._arena_base(0) == SHARED_ARENA_BASE
        assert shot._arena_base(1) == SHARED_ARENA_BASE + PRIVATE_THREAD_SPACING
        fimi = get_workload("FIMI")
        assert fimi._arena_base(1) == SHARED_ARENA_BASE


class TestThreadRuns:
    """A capture runs each distinct per-thread kernel once."""

    @pytest.mark.parametrize("threads", [1, 3, 4, 16])
    @pytest.mark.parametrize("name", list(WORKLOAD_NAMES))
    def test_every_thread_equals_its_own_kernel_run(self, name, threads):
        workload = get_workload(name)
        runs = workload.thread_runs(threads)
        assert len(runs) == threads
        for thread_id, run in enumerate(runs):
            reference = workload.run_kernel(thread_id, threads)
            assert run.instructions == reference.instructions
            for column in TRACE_COLUMNS:
                np.testing.assert_array_equal(
                    getattr(run.trace, column), getattr(reference.trace, column)
                )

    @pytest.mark.parametrize("name", list(WORKLOAD_NAMES))
    def test_threads_with_equal_inputs_share_one_run(self, name):
        calls = []
        threads = 16
        runs = counting_kernel(get_workload(name), calls).thread_runs(threads)
        expected = 1 if name in ONE_KERNEL_PER_CAPTURE else threads
        assert len(calls) == expected
        assert len({id(run) for run in runs}) == expected

    def test_fimi_generates_its_transactions_once(self, monkeypatch):
        from repro.workloads import fimi

        generated = []
        original = fimi.transactions

        def counting_transactions(**kwargs):
            generated.append(kwargs)
            return original(**kwargs)

        monkeypatch.setattr(fimi, "transactions", counting_transactions)
        get_workload("FIMI").thread_runs(16)
        assert len(generated) == 1

    def test_back_to_back_captures_each_run_their_kernels(self):
        calls = []
        guest = counting_kernel(get_workload("MDS"), calls).kernel_guest()
        first = capture_replay_log(guest, 4)
        assert len(calls) == 1
        second = capture_replay_log(guest, 4)
        assert len(calls) == 2
        assert first.content_digest() == second.content_digest()

    def test_shared_trace_arrays_are_read_only(self):
        runs = get_workload("MDS").thread_runs(2)
        assert runs[0] is runs[1]
        for column in TRACE_COLUMNS:
            with pytest.raises(ValueError):
                getattr(runs[1].trace, column)[0] = 1

    def test_run_kernel_rejects_a_thread_outside_the_count(self):
        with pytest.raises(ConfigurationError):
            get_workload("SNP").run_kernel(thread_id=2, threads=2)


class TestSyntheticTraces:
    def test_trace_length(self):
        workload = get_workload("FIMI")
        trace = workload.synthetic_thread_trace(0, 8, accesses=5000, scale=1 / 256)
        assert len(trace) == 5000

    def test_scale_shrinks_footprint(self):
        workload = get_workload("SHOT")
        small = workload.synthetic_thread_trace(0, 1, 20000, scale=1 / 1024)
        large = workload.synthetic_thread_trace(0, 1, 20000, scale=1 / 128)
        assert footprint_bytes(small) < footprint_bytes(large)

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            get_workload("FIMI").synthetic_thread_trace(0, 1, 100, scale=0)

    def test_write_fraction_matches_model(self):
        workload = get_workload("MDS")
        trace = workload.synthetic_thread_trace(0, 1, 20000, scale=1 / 256)
        read_fraction = trace.read_count() / len(trace)
        assert read_fraction == pytest.approx(workload.model.read_fraction, abs=0.05)

    def test_private_regions_disjoint_across_threads(self):
        workload = get_workload("SHOT")
        t0 = workload.synthetic_thread_trace(0, 4, 10000, scale=1 / 256)
        t1 = workload.synthetic_thread_trace(1, 4, 10000, scale=1 / 256)
        # Shared stream addresses may overlap, but private frame ranges
        # must not: check the per-thread private windows.
        window0 = (t0.addresses >= SHARED_ARENA_BASE + PRIVATE_THREAD_SPACING) & (
            t0.addresses < SHARED_ARENA_BASE + 2 * PRIVATE_THREAD_SPACING
        )
        window1 = (t1.addresses >= SHARED_ARENA_BASE + 2 * PRIVATE_THREAD_SPACING) & (
            t1.addresses < SHARED_ARENA_BASE + 3 * PRIVATE_THREAD_SPACING
        )
        assert window0.any() and window1.any()


class TestGuestWorkloads:
    def test_synthetic_guest_runs_in_cosim(self):
        from repro.cache.emulator import DragonheadConfig
        from repro.core.cosim import CoSimPlatform
        from repro.units import MB

        workload = get_workload("FIMI")
        guest = workload.guest_workload(
            "synthetic", accesses_per_thread=8192, scale=1 / 512
        )
        platform = CoSimPlatform(DragonheadConfig(cache_size=1 * MB))
        result = platform.run(guest, cores=4)
        assert result.accesses == 4 * 8192
        assert result.mpki >= 0

    def test_kernel_guest_runs_in_cosim(self):
        from repro.cache.emulator import DragonheadConfig
        from repro.core.cosim import CoSimPlatform
        from repro.units import MB

        workload = get_workload("PLSA")
        platform = CoSimPlatform(DragonheadConfig(cache_size=1 * MB), quantum=1024)
        result = platform.run(workload.kernel_guest(), cores=2)
        assert result.accesses > 1000

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigurationError):
            get_workload("FIMI").guest_workload("recorded")
