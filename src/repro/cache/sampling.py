"""Time- and instruction-synchronized statistic windows.

Section 3.1: "A host computer reads performance data from CB every 500
microseconds."  Section 3.3 explains why the instructions-retired and
cycles-completed messages exist: simulation and emulation run in two
separate time domains, so computing MPKI and miss rates requires
synchronizing counters against both retired instructions and elapsed
cycles.

:class:`WindowSampler` reproduces that mechanism: every time the
emulated clock crosses a 500 µs boundary it snapshots the cache
counters, yielding the per-window series a host reading the CB board
would log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cache.stats import CacheStats


@dataclass(frozen=True, slots=True)
class WindowSample:
    """Counters accumulated during one host read interval."""

    index: int
    cycles: int
    instructions: int
    accesses: int
    misses: int

    @property
    def mpki(self) -> float:
        """Misses per 1000 instructions within this window."""
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / self.instructions

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class WindowSampler:
    """Samples a :class:`CacheStats` counter block on a cycle schedule.

    Args:
        frequency_hz: emulated platform clock (Dragonhead emulates the
            shared LLC at 100 MHz; the guest cores are faster — the
            clock chosen here only sets the window granularity).
        interval_us: host read interval (paper: 500 µs).
        interpolate: lenient-mode recovery for missed host reads.  When
            one progress report crosses several window boundaries (the
            host skipped a 500 µs poll), the default attributes the
            whole delta to the first window and emits empty windows for
            the rest; with ``interpolate=True`` the delta is spread
            evenly across the missed windows instead, and each repaired
            window is counted in :attr:`interpolated_windows`.
    """

    def __init__(
        self,
        frequency_hz: float = 100e6,
        interval_us: float = 500.0,
        interpolate: bool = False,
        on_sample=None,
    ) -> None:
        window = frequency_hz * interval_us * 1e-6
        self.cycles_per_window = max(1, int(window))
        #: Exact (possibly fractional) window width in cycles.  Keeping
        #: the float and placing boundary k at ``ceil(k * width)`` stops
        #: the series drifting against the host-pull clock when
        #: ``frequency_hz * interval_us`` is not an integral number of
        #: cycles — truncating once and striding by the truncated width
        #: accumulates a full window of error every ``1/frac`` windows.
        #: For integral widths (the 100 MHz x 500 µs default) every
        #: boundary is identical to the old ``k * cycles_per_window``.
        self._window_cycles = max(1.0, float(window))
        self.interpolate = interpolate
        self.interpolated_windows = 0
        self.samples: list[WindowSample] = []
        #: Live-stream hook: called with each closed window's sample,
        #: the same object appended to :attr:`samples` — the software CB
        #: host-pull.  None (the default) costs one test per window.
        self.on_sample = on_sample
        self._last_stats = CacheStats()
        self._last_instructions = 0
        self._last_cycles = 0
        self._window_index = 0
        self._next_boundary = self._boundary(1)

    def _boundary(self, k: int) -> int:
        """Cycle count at which window ``k`` (1-based) closes."""
        return int(math.ceil(k * self._window_cycles))

    def _boundaries_upto(self, cycles_completed: int) -> int:
        """Index of the last window boundary at or before ``cycles_completed``."""
        k = max(0, int(cycles_completed / self._window_cycles))
        while self._boundary(k + 1) <= cycles_completed:
            k += 1
        while k > 0 and self._boundary(k) > cycles_completed:
            k -= 1
        return k

    def _emit(self, sample: WindowSample) -> None:
        """Close one window: accumulate it, then publish it if tapped.

        Every append site routes through here, so a live subscriber sees
        exactly the series :attr:`samples` accumulates — the final
        partial window from :meth:`finalize` included.
        """
        self.samples.append(sample)
        if self.on_sample is not None:
            self.on_sample(sample)

    def advance(self, cycles_completed: int, instructions_retired: int, stats: CacheStats) -> None:
        """Report progress of the emulated clock.

        Called whenever a cycles-completed message arrives; emits one
        sample per crossed window boundary (several boundaries may be
        crossed by a single coarse-grained message).
        """
        crossed = 0
        if self.interpolate and cycles_completed >= self._next_boundary:
            crossed = self._boundaries_upto(cycles_completed) - self._window_index
        if crossed > 1:
            self._advance_interpolated(crossed, instructions_retired, stats)
            return
        while cycles_completed >= self._next_boundary:
            delta = stats.delta(self._last_stats)
            self._emit(
                WindowSample(
                    index=len(self.samples),
                    cycles=self._next_boundary - self._last_cycles,
                    instructions=instructions_retired - self._last_instructions,
                    accesses=delta.accesses,
                    misses=delta.misses,
                )
            )
            self._last_stats = stats.snapshot()
            self._last_instructions = instructions_retired
            self._last_cycles = self._next_boundary
            self._window_index += 1
            self._next_boundary = self._boundary(self._window_index + 1)

    def _advance_interpolated(
        self, windows: int, instructions_retired: int, stats: CacheStats
    ) -> None:
        """Spread one oversized delta evenly over the windows it spans.

        The host missed ``windows - 1`` reads; rather than reporting one
        fat window followed by empties, reconstruct a plausible series
        (integer division, remainders to the earliest windows — exactly
        reproducible from the counters alone).
        """
        delta = stats.delta(self._last_stats)
        instructions = instructions_retired - self._last_instructions

        def split(total: int, index: int) -> int:
            return total // windows + (1 if index < total % windows else 0)

        for i in range(windows):
            self._emit(
                WindowSample(
                    index=len(self.samples),
                    cycles=self._next_boundary - self._last_cycles,
                    instructions=split(instructions, i),
                    accesses=split(delta.accesses, i),
                    misses=split(delta.misses, i),
                )
            )
            self._last_cycles = self._next_boundary
            self._window_index += 1
            self._next_boundary = self._boundary(self._window_index + 1)
        self.interpolated_windows += windows - 1
        self._last_stats = stats.snapshot()
        self._last_instructions = instructions_retired

    def advance_series(
        self,
        cycles: np.ndarray,
        instructions: np.ndarray,
        accesses: np.ndarray,
        misses: np.ndarray,
    ) -> None:
        """Batched :meth:`advance`: one call covering a whole progress series.

        Equivalent to calling :meth:`advance` once per progress report
        ``i`` with a stats block whose cumulative access/miss counters
        equal ``accesses[i]`` / ``misses[i]``.  Window boundaries are
        located with one ``searchsorted`` over the (non-decreasing)
        cycle series instead of a per-report clock comparison;
        ``side='left'`` preserves the exact-boundary contract — a report
        landing exactly on a boundary closes that window *with* its
        delta, just as the ``>=`` test in the scalar loop does.

        Only valid in non-interpolate (strict) mode.  After a series
        the snapshot carried in ``_last_stats`` holds only the counters
        window samples read (accesses, hits, misses) — :meth:`finalize`
        and further :meth:`advance` calls observe identical deltas.
        """
        if self.interpolate:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                "advance_series requires non-interpolate mode; lenient "
                "runs keep the per-report loop"
            )
        cycles = np.asarray(cycles, dtype=np.int64)
        if cycles.size == 0:
            return
        final_cycles = int(cycles[-1])
        last = self._boundaries_upto(final_cycles)
        if last <= self._window_index:
            # No boundary crossed: the scalar loop would only have
            # advanced counters it reads lazily; nothing to record.
            return
        instructions = np.asarray(instructions, dtype=np.int64)
        accesses = np.asarray(accesses, dtype=np.int64)
        misses = np.asarray(misses, dtype=np.int64)
        ks = np.arange(self._window_index + 1, last + 1, dtype=np.int64)
        boundaries = np.ceil(ks * self._window_cycles).astype(np.int64)
        closers = np.searchsorted(cycles, boundaries, side="left")
        prev_accesses = self._last_stats.accesses
        prev_hits = self._last_stats.hits
        prev_misses = self._last_stats.misses
        prev_instructions = self._last_instructions
        prev_cycles = self._last_cycles
        for boundary, closer in zip(boundaries.tolist(), closers.tolist()):
            at_accesses = int(accesses[closer])
            at_misses = int(misses[closer])
            at_instructions = int(instructions[closer])
            self._emit(
                WindowSample(
                    index=len(self.samples),
                    cycles=boundary - prev_cycles,
                    instructions=at_instructions - prev_instructions,
                    accesses=at_accesses - prev_accesses,
                    misses=at_misses - prev_misses,
                )
            )
            prev_accesses, prev_misses = at_accesses, at_misses
            prev_hits = at_accesses - at_misses
            prev_instructions, prev_cycles = at_instructions, boundary
        snapshot = CacheStats()
        snapshot.accesses = prev_accesses
        snapshot.hits = prev_hits
        snapshot.misses = prev_misses
        self._last_stats = snapshot
        self._last_instructions = prev_instructions
        self._last_cycles = prev_cycles
        self._window_index = last
        self._next_boundary = self._boundary(last + 1)

    def finalize(self, cycles_completed: int, instructions_retired: int, stats: CacheStats) -> None:
        """Emit a final partial window at end of run, if non-empty."""
        delta = stats.delta(self._last_stats)
        if delta.accesses or instructions_retired > self._last_instructions:
            self._emit(
                WindowSample(
                    index=len(self.samples),
                    cycles=cycles_completed - self._last_cycles,
                    instructions=instructions_retired - self._last_instructions,
                    accesses=delta.accesses,
                    misses=delta.misses,
                )
            )
            self._last_stats = stats.snapshot()
            self._last_instructions = instructions_retired
            self._last_cycles = cycles_completed
