"""The Workload abstraction: one paper workload, both evaluation paths.

A :class:`Workload` bundles everything the harness needs:

* the calibrated :class:`~repro.workloads.models.WorkloadMemoryModel`
  (paper-scale analytic path, Figures 4-7 / Table 2);
* the instrumented *kernel* — the real algorithm from
  :mod:`repro.mining` emitting genuine traces at reduced scale (exact
  path, used by the validation tests and the co-simulation examples);
* synthetic trace generation matching the model's component mixture
  (for exact-path runs bigger than the kernels can execute);
* the Table 1 metadata.

Thread scaling on the exact path approximates the Section 4.3 sharing
taxonomy through arena placement: category-A/B threads run over the
*same* address range (their primary structure is shared), category-C
threads get disjoint ranges (private working sets).  A workload's
kernel inputs are data — one keyword mapping per thread — so a capture
can see which threads would run identical guest code and run it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator

import numpy as np

from repro.core.softsdv import GuestWorkload
from repro.errors import ConfigurationError
from repro.trace.generators import (
    sequential_scan,
    Region,
    cyclic_scan,
    interleave_mix,
    pointer_chase,
    uniform_random,
)
from repro.trace.instrument import MemoryArena, TraceRecorder
from repro.trace.record import TraceChunk
from repro.trace.stream import chunk_stream
from repro.workloads.models import WorkloadMemoryModel

#: Arena bases: threads of shared-structure workloads start here...
SHARED_ARENA_BASE = 0x1000_0000
#: ...while private-working-set threads are spaced this far apart.
PRIVATE_THREAD_SPACING = 0x4000_0000


def _validate_repeats(repeats: int) -> None:
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")


def _repeated_stream(trace: TraceChunk, repeats: int) -> Iterator[TraceChunk]:
    """Stream ``trace`` end to end ``repeats`` times (lazy, no copies)."""
    for _ in range(repeats):
        yield from chunk_stream(trace)


@dataclass(frozen=True)
class KernelRun:
    """Result of one instrumented kernel execution."""

    workload: str
    result: object
    trace: TraceChunk
    instructions: int

    @property
    def accesses(self) -> int:
        return len(self.trace)

    @property
    def apki(self) -> float:
        """Accesses per 1000 instructions measured from the real kernel."""
        return 1000.0 * self.accesses / self.instructions if self.instructions else 0.0


@dataclass(frozen=True)
class Workload:
    """One of the paper's eight data-mining workloads.

    The exact path runs ``kernel``, a traced kernel from
    :mod:`repro.mining` called as ``kernel(recorder, arena, **args)``.
    ``thread_args(threads)`` returns each thread's ``args``: one keyword
    mapping per thread, with hashable values.
    """

    name: str
    description: str
    category: str  # Section 4.3 taxonomy: A, B, or C
    model: WorkloadMemoryModel
    kernel: Callable[..., object]
    thread_args: Callable[[int], list[dict[str, Hashable]]]
    table1_parameters: str = ""
    table1_dataset: str = ""

    # -- exact path: the real algorithm --------------------------------------

    def run_kernel(self, thread_id: int = 0, threads: int = 1) -> KernelRun:
        """Execute the instrumented mining kernel for one thread."""
        if not 0 <= thread_id < threads:
            raise ConfigurationError(
                f"thread_id must be in [0, {threads}), got {thread_id}"
            )
        args = self.thread_args(threads)[thread_id]
        return self._execute(self._arena_base(thread_id), args)

    def thread_runs(self, threads: int) -> list[KernelRun]:
        """One :class:`KernelRun` per thread, each distinct kernel run once.

        Threads called with equal arguments on the same arena base
        record identical traces, so they share one run object.  Every
        returned trace is read-only: a stray in-place write raises
        instead of corrupting the threads that share it.
        """
        runs: dict[tuple, KernelRun] = {}
        per_thread = []
        for thread_id, args in enumerate(self.thread_args(threads)):
            base = self._arena_base(thread_id)
            key = (base, tuple(sorted(args.items())))
            if key not in runs:
                runs[key] = self._execute(base, args)
            per_thread.append(runs[key])
        for run in runs.values():
            trace = run.trace
            for column in (trace.addresses, trace.kinds, trace.cores, trace.pcs):
                column.flags.writeable = False
        return per_thread

    def _execute(self, base: int, args: dict[str, Hashable]) -> KernelRun:
        recorder = TraceRecorder()
        result = self.kernel(recorder, MemoryArena(base=base), **args)
        return KernelRun(
            workload=self.name,
            result=result,
            trace=recorder.trace(),
            instructions=recorder.instruction_count,
        )

    def _arena_base(self, thread_id: int) -> int:
        if self.category == "C":
            return SHARED_ARENA_BASE + thread_id * PRIVATE_THREAD_SPACING
        # Categories A and B share the primary structure: same addresses.
        return SHARED_ARENA_BASE

    def kernel_guest(self, repeats: int = 1) -> GuestWorkload:
        """A :class:`GuestWorkload` backed by real per-thread kernel traces.

        ``repeats`` replays each thread's kernel trace that many times
        back to back — the long-stream scaling knob sampled simulation
        needs to exercise traces orders of magnitude beyond one kernel
        invocation without paying for extra kernel runs.
        """
        _validate_repeats(repeats)

        def thread_streams(n: int) -> list:
            return [_repeated_stream(run.trace, repeats) for run in self.thread_runs(n)]

        return GuestWorkload(
            name=self.name,
            thread_streams=thread_streams,
            instructions_per_access=self.model.instructions_per_access,
        )

    # -- exact path: model-shaped synthetic traces ---------------------------------

    #: Components whose (unscaled) footprint is at most this many bytes
    #: are filtered from synthetic FSB traffic — they live in the cores'
    #: private L1s and never reach the bus the emulator snoops.
    L1_FILTER_BYTES = 32 * 1024

    def synthetic_thread_trace(
        self,
        thread_id: int,
        threads: int,
        accesses: int,
        scale: float,
        seed: int = 0,
        line_size_hint: int = 64,
    ) -> TraceChunk:
        """Generate one thread's *FSB* trace from the model's components.

        The trace models what Dragonhead snoops: post-L1 traffic.  Hot
        components (footprint <= :data:`L1_FILTER_BYTES`) are filtered
        out, strided scans are emitted at line granularity (one bus
        transaction per line crossed), and components are weighted by
        their line-crossing rates — so working sets build up within
        simulatable trace lengths.

        ``scale`` shrinks every component footprint so the resulting
        working sets are simulatable exactly; MPKI-versus-capacity
        shape is preserved when cache sizes are scaled by the same
        factor (the down-scaling the validation tests rely on).
        """
        if not 0 < scale <= 1:
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        rng = np.random.default_rng((seed * 1009 + thread_id) & 0x7FFFFFFF)
        chunks: list[TraceChunk] = []
        weights: list[float] = []
        shared_cursor = SHARED_ARENA_BASE
        private_cursor = SHARED_ARENA_BASE + (1 + thread_id) * PRIVATE_THREAD_SPACING
        write_fraction = 1.0 - self.model.read_fraction
        for index, component in enumerate(self._fsb_components()):
            region_bytes = max(line_size_hint * 4, int(component.region_bytes * scale))
            if component.sharing == "private":
                base = private_cursor
                private_cursor += region_bytes + 4096
            else:
                base = shared_cursor
                shared_cursor += region_bytes + 4096
            region = Region(base=base, size=region_bytes)
            pc = 0x400000 + index * 16
            stride = max(component.stride, line_size_hint)
            if component.pattern in ("stream", "fresh"):
                # Fresh data flowing past: a long forward scan that
                # never wraps within the sampled window.
                stream_region = Region(
                    base=region.base,
                    size=max(region.size, accesses * stride * 2),
                )
                chunk = sequential_scan(
                    stream_region, count=accesses, stride=stride,
                    write_fraction=write_fraction, rng=rng, pc=pc,
                )
                private_cursor = max(private_cursor, stream_region.end + 4096)
                shared_cursor = max(shared_cursor, stream_region.end + 4096)
            elif component.pattern == "cyclic":
                chunk = cyclic_scan(
                    region, passes=2, stride=stride,
                    write_fraction=write_fraction, rng=rng, pc=pc,
                )
            elif component.pattern == "random":
                chunk = uniform_random(
                    region, count=max(256, 2 * region_bytes // line_size_hint),
                    granule=line_size_hint,
                    write_fraction=write_fraction, rng=rng, pc=pc,
                )
            else:  # pointer
                chunk = pointer_chase(
                    region, count=max(256, 2 * region_bytes // line_size_hint),
                    node_size=line_size_hint,
                    write_fraction=write_fraction, rng=rng, pc=pc,
                )
            chunks.append(chunk)
            weights.append(component.crossing_apki(line_size_hint))
        return interleave_mix(chunks, weights, accesses, rng=rng)

    def _fsb_components(self):
        """Model components whose traffic reaches the front-side bus."""
        return [
            c
            for c in self.model.components
            if c.region_bytes > self.L1_FILTER_BYTES
        ]

    def fsb_instructions_per_access(self, line_size: int = 64) -> float:
        """Retired instructions represented by one FSB transaction.

        The synthetic trace carries only post-L1 line-crossing traffic;
        each of those transactions stands for ``1000 / (post-L1
        crossing rate)`` instructions of guest execution.
        """
        crossing = sum(c.crossing_apki(line_size) for c in self._fsb_components())
        return 1000.0 / crossing if crossing else 1.0

    def synthetic_guest(
        self,
        accesses_per_thread: int = 65536,
        scale: float = 1 / 256,
        seed: int = 0,
        repeats: int = 1,
    ) -> GuestWorkload:
        """A :class:`GuestWorkload` backed by model-shaped synthetic traces.

        ``repeats`` replays each thread's generated trace that many
        times back to back, scaling the stream length without scaling
        generation cost.
        """
        _validate_repeats(repeats)

        def thread_streams(n: int) -> list:
            return [
                _repeated_stream(
                    self.synthetic_thread_trace(t, n, accesses_per_thread, scale, seed),
                    repeats,
                )
                for t in range(n)
            ]

        return GuestWorkload(
            name=self.name,
            thread_streams=thread_streams,
            instructions_per_access=self.fsb_instructions_per_access(),
        )

    def guest_workload(self, source: str = "synthetic", **kwargs) -> GuestWorkload:
        """Convenience dispatcher: ``source`` is ``synthetic`` or ``kernel``."""
        if source == "synthetic":
            return self.synthetic_guest(**kwargs)
        if source == "kernel":
            return self.kernel_guest(**kwargs)
        raise ConfigurationError(f"unknown trace source {source!r}")
