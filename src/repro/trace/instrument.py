"""Instrumentation layer: real kernels emitting real traces.

The paper's platform observes the *actual* memory transactions of the
workloads because the guest code runs natively and Dragonhead snoops the
bus.  Our analog: the data-mining kernels in :mod:`repro.mining` operate
on :class:`TracedArray` buffers allocated from a :class:`MemoryArena`;
every element read/write and every bulk slice operation is recorded into
a :class:`TraceRecorder`, producing the exact address trace the kernel
induces (at the reduced problem scales that pure Python can execute).

This is what grounds the synthetic memory models: tests compare cache
statistics of instrumented-kernel traces against the models'
predictions at matching scales.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import TraceError
from repro.trace.record import AccessKind, TraceChunk

_CHUNK = 262144


class TraceRecorder:
    """Accumulates recorded accesses as ``(addresses, kind, pc)`` segments.

    A range or gather is one segment whose kind and pc hold for every
    address in it; pending scalar records flush into a segment with
    per-access kinds and pcs.  :meth:`trace` fills the columns once.
    """

    def __init__(self) -> None:
        self._addr: list[int] = []
        self._kind: list[int] = []
        self._pc: list[int] = []
        self._segments: list[tuple[np.ndarray, int | np.ndarray, int | np.ndarray]] = []
        self.instructions: int = 0

    def record(self, address: int, kind: AccessKind, pc: int = 0) -> None:
        """Record one transaction."""
        self._addr.append(address)
        self._kind.append(int(kind))
        self._pc.append(pc)
        if len(self._addr) >= _CHUNK:
            self._flush()

    def record_range(
        self, base: int, count: int, stride: int, kind: AccessKind, pc: int = 0
    ) -> None:
        """Record a strided range of transactions (used by bulk slice ops)."""
        if count > 0:
            offsets = np.arange(count, dtype=np.uint64) * np.uint64(stride)
            self.record_addresses(np.uint64(base) + offsets, kind, pc)

    def record_addresses(self, addresses: np.ndarray, kind: AccessKind, pc: int = 0) -> None:
        """Record transactions at ``uint64`` ``addresses``, all of one kind and pc."""
        self._flush()
        self._segments.append((addresses, int(kind), pc))

    def retire(self, instructions: int = 1) -> None:
        """Account non-memory instructions executed by the kernel.

        Memory transactions are counted as one instruction each
        automatically; kernels call this for the surrounding arithmetic
        and control so instruction-normalized statistics (MPKI) have a
        denominator.
        """
        self.instructions += instructions

    def _flush(self) -> None:
        if self._addr:
            self._segments.append(
                (
                    np.array(self._addr, dtype=np.uint64),
                    np.array(self._kind, dtype=np.uint8),
                    np.array(self._pc, dtype=np.uint64),
                )
            )
            self._addr = []
            self._kind = []
            self._pc = []

    @property
    def access_count(self) -> int:
        return sum(len(addresses) for addresses, _, _ in self._segments) + len(self._addr)

    @property
    def instruction_count(self) -> int:
        """Total instructions: explicit retires plus one per memory access."""
        return self.instructions + self.access_count

    def trace(self) -> TraceChunk:
        """Return everything recorded so far as one chunk."""
        self._flush()
        if not self._segments:
            return TraceChunk.empty()
        addresses = np.concatenate([segment[0] for segment in self._segments])
        kinds = np.empty(len(addresses), dtype=np.uint8)
        pcs = np.empty(len(addresses), dtype=np.uint64)
        start = 0
        for segment, kind, pc in self._segments:
            end = start + len(segment)
            kinds[start:end] = kind
            pcs[start:end] = pc
            start = end
        return TraceChunk(addresses, kinds, 0, pcs)


class MemoryArena:
    """A toy virtual address space that hands out disjoint buffer ranges.

    Buffers are aligned to 4 KB pages, mimicking an allocator, so traces
    from different data structures never alias.
    """

    PAGE = 4096

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base

    def allocate(self, size_bytes: int) -> int:
        """Reserve ``size_bytes`` and return the base address."""
        if size_bytes <= 0:
            raise TraceError(f"allocation size must be positive, got {size_bytes}")
        base = self._next
        pages = -(-size_bytes // self.PAGE)
        self._next += pages * self.PAGE
        return base

    def array(
        self,
        recorder: TraceRecorder,
        shape: int | tuple[int, ...],
        dtype: str | np.dtype = np.float64,
        pc: int = 0,
    ) -> "TracedArray":
        """Allocate and wrap a numpy array whose accesses are recorded."""
        data = np.zeros(shape, dtype=dtype)
        return TracedArray(data, recorder, self.allocate(data.nbytes), pc=pc)

    def wrap(self, recorder: TraceRecorder, data: np.ndarray, pc: int = 0) -> "TracedArray":
        """Wrap an existing array, allocating it an address range."""
        return TracedArray(data, recorder, self.allocate(data.nbytes), pc=pc)


class TracedArray:
    """A numpy array wrapper that records every access it serves.

    Scalar indexing records a single transaction at the element's
    address; slice reads/writes record the whole strided range in one
    vectorized call, so bulk operations stay cheap.  Only 1-D and 2-D
    row-major arrays are supported — enough for the mining kernels.
    """

    __slots__ = ("data", "recorder", "base", "pc")

    def __init__(
        self, data: np.ndarray, recorder: TraceRecorder, base: int, pc: int = 0
    ) -> None:
        if data.ndim not in (1, 2):
            raise TraceError(f"TracedArray supports 1-D/2-D arrays, got ndim={data.ndim}")
        if not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        self.data = data
        self.recorder = recorder
        self.base = base
        self.pc = pc

    # -- address arithmetic -------------------------------------------

    def _element_address(self, index: int | tuple[int, ...]) -> int:
        itemsize = self.data.itemsize
        if self.data.ndim == 1:
            i = int(index) if not isinstance(index, tuple) else int(index[0])
            if i < 0:
                i += self.data.shape[0]
            return self.base + i * itemsize
        if not isinstance(index, tuple) or len(index) != 2:
            raise TraceError("2-D TracedArray requires (row, col) indexing")
        r, c = int(index[0]), int(index[1])
        if r < 0:
            r += self.data.shape[0]
        if c < 0:
            c += self.data.shape[1]
        return self.base + (r * self.data.shape[1] + c) * itemsize

    # -- scalar access -------------------------------------------------

    def __getitem__(self, index):
        if isinstance(index, slice) or (
            isinstance(index, tuple) and any(isinstance(i, slice) for i in index)
        ):
            return self._read_slice(index)
        self.recorder.record(self._element_address(index), AccessKind.READ, self.pc)
        return self.data[index]

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice) or (
            isinstance(index, tuple) and any(isinstance(i, slice) for i in index)
        ):
            self._write_slice(index, value)
            return
        self.recorder.record(self._element_address(index), AccessKind.WRITE, self.pc)
        self.data[index] = value

    def __len__(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    # -- bulk access ----------------------------------------------------

    def _axis_position(self, index: int, axis: int) -> int:
        """Normalize a negative ``index`` on ``axis``; reject one out of range."""
        size = self.data.shape[axis]
        position = int(index) + size if index < 0 else int(index)
        if not 0 <= position < size:
            raise TraceError(f"index {index} is out of range for axis {axis} of size {size}")
        return position

    def _slice_range(self, index) -> tuple[int, int, int]:
        """Resolve a slice to (base address, element count, stride)."""
        itemsize = self.data.itemsize
        if self.data.ndim == 1:
            sl = index if isinstance(index, slice) else index[0]
            start, stop, step = sl.indices(self.data.shape[0])
            count = max(0, (stop - start + (step - (1 if step > 0 else -1))) // step)
            return self.base + start * itemsize, count, step * itemsize
        # 2-D: support row slices a[r, :] and column-contiguous a[r, c0:c1]
        if isinstance(index, tuple) and len(index) == 2:
            r, cs = index
            if isinstance(r, (int, np.integer)) and isinstance(cs, slice):
                start, stop, step = cs.indices(self.data.shape[1])
                count = max(0, (stop - start + (step - (1 if step > 0 else -1))) // step)
                row_base = self.base + self._axis_position(r, 0) * self.data.shape[1] * itemsize
                return row_base + start * itemsize, count, step * itemsize
            if isinstance(r, slice) and isinstance(cs, (int, np.integer)):
                start, stop, step = r.indices(self.data.shape[0])
                count = max(0, (stop - start + (step - (1 if step > 0 else -1))) // step)
                col_base = self.base + self._axis_position(cs, 1) * itemsize
                row_stride = self.data.shape[1] * itemsize
                return col_base + start * row_stride, count, step * row_stride
        raise TraceError(f"unsupported traced slice: {index!r}")

    def _read_slice(self, index):
        base, count, stride = self._slice_range(index)
        self.recorder.record_range(base, count, stride, AccessKind.READ, self.pc)
        return self.data[index]

    def _write_slice(self, index, value) -> None:
        base, count, stride = self._slice_range(index)
        self.recorder.record_range(base, count, stride, AccessKind.WRITE, self.pc)
        self.data[index] = value

    # -- whole-array helpers --------------------------------------------

    def scan_read(self) -> np.ndarray:
        """Record a full sequential read of the array and return the data."""
        self.recorder.record_range(
            self.base, self.data.size, self.data.itemsize, AccessKind.READ, self.pc
        )
        return self.data

    def scan_write(self, values: np.ndarray | float) -> None:
        """Record a full sequential write of the array and store ``values``."""
        self.recorder.record_range(
            self.base, self.data.size, self.data.itemsize, AccessKind.WRITE, self.pc
        )
        self.data[...] = values

    def gather(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Record reads at arbitrary flat indices and return the elements."""
        idx = np.asarray(indices, dtype=np.int64).ravel()
        addresses = np.uint64(self.base) + idx.astype(np.uint64) * np.uint64(self.data.itemsize)
        self.recorder.record_addresses(addresses, AccessKind.READ, self.pc)
        return self.data.reshape(-1)[idx]
