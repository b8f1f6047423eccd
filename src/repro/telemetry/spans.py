"""Context-manager spans with monotonic clocks.

A span measures one phase of a run — a trace capture, one replayed
configuration, an audit pass — with
``time.perf_counter`` (monotonic, immune to wall-clock steps).  Spans
nest: the tracker keeps a stack, so a ``replay.point`` span opened
inside the ``replay`` phase records its parent and depth, and the
profile report can attribute every second of a run to the deepest
phase that owned it.

Closing a span does three things: appends an immutable
:class:`SpanRecord` to the tracker, folds the duration into the
registry (``repro_span_seconds_total`` / ``repro_span_calls_total``,
labelled by span name), and emits a ``span`` event to the JSONL sink if
one is attached.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.telemetry.registry import MetricRegistry


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One closed span: what ran, where it nested, and for how long."""

    name: str
    depth: int
    parent: str | None
    start: float  # perf_counter seconds at entry
    seconds: float


class SpanTracker:
    """The per-process span stack and the log of closed spans."""

    def __init__(
        self,
        registry: MetricRegistry,
        on_close: Callable[[SpanRecord], None] | None = None,
    ) -> None:
        self.registry = registry
        self.records: list[SpanRecord] = []
        self.on_close = on_close
        self._stack: list[str] = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        depth = len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self._stack.pop()
            record = SpanRecord(
                name=name, depth=depth, parent=parent, start=start, seconds=seconds
            )
            self.records.append(record)
            self.registry.counter("repro_span_seconds_total", span=name).inc(seconds)
            self.registry.counter("repro_span_calls_total", span=name).inc()
            if self.on_close is not None:
                self.on_close(record)

    # -- aggregation helpers (the profile report's raw material) -------

    def total_seconds(self) -> float:
        """Wall time of the outermost spans (depth 0)."""
        return sum(r.seconds for r in self.records if r.depth == 0)

    def phase_seconds(self, depth: int = 1) -> dict[str, tuple[float, int]]:
        """``{name: (seconds, calls)}`` aggregated at one nesting depth.

        Depth-1 spans are the *phases* of a CLI run: direct children of
        the root span, mutually exclusive in time, so their durations
        are additive and comparable to the root's total.
        """
        out: dict[str, tuple[float, int]] = {}
        for record in self.records:
            if record.depth != depth:
                continue
            seconds, calls = out.get(record.name, (0.0, 0))
            out[record.name] = (seconds + record.seconds, calls + 1)
        return out

    def by_name(self) -> dict[str, tuple[float, int]]:
        """``{name: (seconds, calls)}`` over every span, any depth."""
        out: dict[str, tuple[float, int]] = {}
        for record in self.records:
            seconds, calls = out.get(record.name, (0.0, 0))
            out[record.name] = (seconds + record.seconds, calls + 1)
        return out
