"""Tests for the kernel instrumentation layer."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.instrument import MemoryArena, TraceRecorder, TracedArray
from repro.trace.record import AccessKind


class TestTraceRecorder:
    def test_record_and_trace(self):
        recorder = TraceRecorder()
        recorder.record(0x100, AccessKind.READ)
        recorder.record(0x108, AccessKind.WRITE, pc=5)
        trace = recorder.trace()
        assert list(trace.addresses) == [0x100, 0x108]
        assert list(trace.kinds) == [0, 1]
        assert list(trace.pcs) == [0, 5]

    def test_record_range_vectorized(self):
        recorder = TraceRecorder()
        recorder.record_range(0x1000, count=4, stride=16, kind=AccessKind.READ)
        assert list(recorder.trace().addresses) == [0x1000, 0x1010, 0x1020, 0x1030]

    def test_record_range_empty(self):
        recorder = TraceRecorder()
        recorder.record_range(0, 0, 8, AccessKind.READ)
        assert recorder.access_count == 0

    def test_instruction_accounting(self):
        recorder = TraceRecorder()
        recorder.record(0x10, AccessKind.READ)
        recorder.retire(9)
        assert recorder.instruction_count == 10  # 1 access + 9 retired

    def test_interleaved_scalar_and_range_order(self):
        recorder = TraceRecorder()
        recorder.record(0x1, AccessKind.READ)
        recorder.record_range(0x10, 2, 8, AccessKind.WRITE)
        recorder.record(0x2, AccessKind.READ)
        assert list(recorder.trace().addresses) == [0x1, 0x10, 0x18, 0x2]

    def test_records_ranges_and_gathers_from_one_kernel_keep_order(self):
        recorder = TraceRecorder()
        vector = TracedArray(np.arange(8, dtype=np.float64), recorder, base=0x1000, pc=7)
        matrix = TracedArray(np.zeros((2, 4)), recorder, base=0x2000, pc=9)
        vector[1]
        matrix[1, 1:3] = 5.0
        recorder.record(0x40, AccessKind.WRITE, pc=3)
        vector.gather([5, 0])
        vector[7] = 1.0
        matrix[:, 0]
        trace = recorder.trace()
        assert trace.addresses.tolist() == [
            0x1008, 0x2028, 0x2030, 0x40, 0x1028, 0x1000, 0x1038, 0x2000, 0x2020,
        ]
        assert trace.kinds.tolist() == [0, 1, 1, 1, 0, 0, 1, 0, 0]
        assert trace.pcs.tolist() == [7, 9, 9, 3, 7, 7, 7, 9, 9]
        assert trace.cores.tolist() == [0] * 9
        assert (trace.addresses.dtype, trace.kinds.dtype, trace.pcs.dtype) == (
            np.uint64, np.uint8, np.uint64,
        )
        assert recorder.instruction_count == 9


class TestMemoryArena:
    def test_disjoint_allocations(self):
        arena = MemoryArena()
        a = arena.allocate(100)
        b = arena.allocate(100)
        assert b >= a + 100

    def test_page_alignment(self):
        arena = MemoryArena()
        arena.allocate(1)
        second = arena.allocate(1)
        assert second % MemoryArena.PAGE == 0

    def test_rejects_bad_size(self):
        with pytest.raises(TraceError):
            MemoryArena().allocate(0)


class TestTracedArray:
    def make(self, shape=(8,), dtype=np.float64):
        recorder = TraceRecorder()
        arena = MemoryArena()
        return arena.array(recorder, shape, dtype), recorder

    def test_scalar_read_records_address(self):
        array, recorder = self.make()
        array[3]
        trace = recorder.trace()
        assert trace.addresses[0] == array.base + 3 * 8
        assert trace.kinds[0] == 0

    def test_scalar_write_records_write(self):
        array, recorder = self.make()
        array[2] = 7.0
        trace = recorder.trace()
        assert trace.kinds[0] == 1
        assert array.data[2] == 7.0

    def test_negative_index(self):
        array, recorder = self.make()
        array[-1]
        assert recorder.trace().addresses[0] == array.base + 7 * 8

    def test_2d_element_address(self):
        array, recorder = self.make(shape=(4, 5))
        array[2, 3]
        assert recorder.trace().addresses[0] == array.base + (2 * 5 + 3) * 8

    def test_row_slice(self):
        array, recorder = self.make(shape=(4, 5))
        array[1, :]
        trace = recorder.trace()
        assert len(trace) == 5
        assert trace.addresses[0] == array.base + 5 * 8

    def test_column_slice_strides_by_row(self):
        array, recorder = self.make(shape=(4, 5))
        array[:, 2]
        trace = recorder.trace()
        assert len(trace) == 4
        deltas = np.diff(trace.addresses.astype(np.int64))
        assert all(d == 5 * 8 for d in deltas)

    def test_negative_row_and_column_slices_stay_in_the_buffer(self):
        recorder = TraceRecorder()
        array = TracedArray(np.zeros((4, 8)), recorder, base=0x1000_0000)
        array[-1, :]
        array[:, -1] = 1.0
        trace = recorder.trace()
        assert trace.addresses.tolist() == [0x1000_00C0 + 8 * i for i in range(8)] + [
            0x1000_0038 + 64 * i for i in range(4)
        ]

    @pytest.mark.parametrize(
        "index",
        [(4, slice(None)), (-5, slice(None)), (slice(None), 8), (slice(None), -9)],
    )
    def test_out_of_range_slice_index_rejected(self, index):
        array, recorder = self.make(shape=(4, 8))
        with pytest.raises(TraceError):
            array[index]
        assert recorder.access_count == 0

    def test_1d_slice_write(self):
        array, recorder = self.make()
        array[2:5] = 1.0
        trace = recorder.trace()
        assert len(trace) == 3
        assert set(trace.kinds) == {1}
        assert list(array.data[2:5]) == [1.0] * 3

    def test_scan_read_covers_array(self):
        array, recorder = self.make(shape=(16,))
        array.scan_read()
        assert len(recorder.trace()) == 16

    def test_gather(self):
        array, recorder = self.make(shape=(16,))
        array.data[:] = np.arange(16)
        values = array.gather([3, 1, 3])
        assert list(values) == [3, 1, 3]
        assert len(recorder.trace()) == 3

    def test_rejects_3d(self):
        recorder = TraceRecorder()
        with pytest.raises(TraceError):
            TracedArray(np.zeros((2, 2, 2)), recorder, base=0)

    def test_addresses_fall_inside_allocation(self):
        recorder = TraceRecorder()
        arena = MemoryArena()
        array = arena.array(recorder, (64,), np.float64)
        array.scan_read()
        trace = recorder.trace()
        assert trace.addresses.min() >= array.base
        assert trace.addresses.max() < array.base + 64 * 8
