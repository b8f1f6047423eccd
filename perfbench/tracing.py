"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files only:
:func:`instrument` swaps each layer's entry callables (module attributes
and class methods) for thin timing wrappers for the length of a traced
run, and puts the originals back afterwards.  Nothing under ``src/``
knows it is being traced.

Each span records its name, layer, start, end and parent.  A span opened
on a thread that has no open span (the job server's executor thread)
gets the run's root span as parent, so one tree covers the run.  A
layer's self time is its spans' durations minus the part of each span's
interval its child spans cover; over a well-formed tree the self times
add up to the root's duration exactly, which :func:`reconcile` checks.

Pool workers forked during a traced run inherit the wrappers, but their
spans stay in the child process: for ``kernel_fanout`` only parent-side
time is visible.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

#: The root span's layer: time the benchmark itself spends outside
#: every wrapped layer (its own loop, checks, and idle waiting).
BENCH_LAYER = "bench"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float | None = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name} is still open")
        return self.end - self.start


class Tracer:
    """Collects spans and counters in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1].id if stack else self.root
        with self._lock:
            span = Span(len(self.spans), name, layer, parent, self.clock())
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()

    @contextmanager
    def root_span(self, name: str) -> Iterator[Span]:
        """The run's root: parent of every span opened while it is open."""
        with self.span(BENCH_LAYER, name) as span:
            self.root = span.id
            try:
                yield span
            finally:
                self.root = None

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(span.name == name for span in self._stack())

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n


def covered_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (a bug the reconciliation would then expose)
    cannot drive a self time negative.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[span.id]
        ]
        result[span.id] = span.duration - covered_length(clipped)
    return result


def layer_self_times(spans: Sequence[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span_id, value in self_times(spans).items():
        totals[spans[span_id].layer] += value
    return dict(totals)


def inclusive_times(spans: Sequence[Span]) -> dict[str, float]:
    """Summed duration per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration
    return dict(totals)


def reconcile(spans: Sequence[Span], root: Span) -> float:
    """Sum of self times minus the root's duration (0 on a sound tree)."""
    return sum(self_times(spans).values()) - root.duration


# -- layer instrumentation ---------------------------------------------


class Instrumentation:
    """The wrappers installed for one traced run; ``restore`` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        name: str,
        after: Callable[[Tracer, tuple, object], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span; then run ``after``."""
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(layer, name):
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_store(self, cache_class: type) -> None:
        """``TraceCache.store``: a spill when inside ``replay_map``.

        ``replay_map`` spills an uncached log into a temporary cache
        entry so pool workers can memory-map it; that store is fan-out
        cost (``harness.parallel``), every other store is the trace
        cache's own.
        """
        original = cache_class.store
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.inside("harness.replay.replay_map"):
                layer, name = "harness.parallel", "harness.parallel.spill"
            else:
                layer, name = "trace.cache", "trace.cache.store"
            with tracer.span(layer, name):
                return original(*args, **kwargs)

        self.replace(cache_class, "store", traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _count(name: str, measure: Callable[[tuple, object], float]):
    def after(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.count(name, measure(args, result))

    return after


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap the entry points of every layer the benchmark reports on."""
    from repro.cache.fastlru import FastLRUKernel
    from repro.cache.emulator import DragonheadEmulator
    from repro.cache.sampling import WindowSampler
    from repro.harness import parallel as parallel_module
    from repro.harness import replay as replay_module
    from repro.harness.supervisor import SupervisorContext
    from repro.serve.server import JobServer
    from repro.simpoint import engine as engine_module
    from repro.simpoint import fingerprint as fingerprint_module
    from repro.trace.cache import TraceCache

    inst = Instrumentation(tracer)
    inst.wrap(
        DragonheadEmulator, "emulate_stream", "cache.emulator",
        "cache.emulator.emulate_stream",
        _count("cache.emulator.accesses", lambda args, _: len(args[1])),
    )
    inst.wrap(
        FastLRUKernel, "lookup_batch", "cache.fastlru", "cache.fastlru.probe",
        _count("cache.fastlru.lines", lambda args, _: len(args[1])),
    )

    original_advance = WindowSampler.advance_series

    def advance_series(self, *args, **kwargs):
        before = len(self.samples)
        with tracer.span("cache.sampling", "cache.sampling.advance_series"):
            result = original_advance(self, *args, **kwargs)
        tracer.count("cache.sampling.windows", len(self.samples) - before)
        return result

    inst.replace(WindowSampler, "advance_series", advance_series)

    inst.wrap(
        replay_module, "capture_replay_log", "core", "core.capture",
        _count("core.captured_accesses", lambda _, log: log.accesses),
    )
    inst.wrap(replay_module, "replay", "harness.replay", "harness.replay.replay")
    inst.wrap(
        replay_module, "replay_map", "harness.replay", "harness.replay.replay_map"
    )
    for method in ("to_chunk", "progress_table"):
        inst.wrap(
            replay_module.ReplayLog, method, "harness.replay",
            "harness.replay.materialize",
        )
    points = _count("harness.parallel.points", lambda args, _: len(list(args[1])))
    # replay.py binds parallel_map at import time, so both names are
    # wrapped; a call goes through exactly one of them.
    inst.wrap(
        replay_module, "parallel_map", "harness.parallel",
        "harness.parallel.map", points,
    )
    inst.wrap(
        parallel_module, "parallel_map", "harness.parallel",
        "harness.parallel.map", points,
    )

    original_count = SupervisorContext.count

    def count(self, kind, n=1):
        if kind == "point-retry":
            tracer.count("harness.parallel.retries", n)
        return original_count(self, kind, n)

    inst.replace(SupervisorContext, "count", count)

    inst.wrap_store(TraceCache)
    inst.wrap(
        TraceCache, "load", "trace.cache", "trace.cache.load",
        _count("trace.cache.hits", lambda _, payload: payload is not None),
    )
    inst.wrap(
        engine_module, "_load_or_fingerprint", "simpoint",
        "simpoint.fingerprint",
    )
    inst.wrap(engine_module, "cluster_intervals", "simpoint", "simpoint.cluster")
    def representatives(tracer, args, result):
        replayed, measured, warmed = result
        tracer.count("simpoint.representatives", len(replayed))
        tracer.count("simpoint.emulated_accesses", measured + warmed)
        tracer.count("simpoint.stream_accesses", args[0].accesses)

    inst.wrap(
        engine_module, "_replay_representatives", "simpoint", "simpoint.replay",
        representatives,
    )
    inst.wrap(
        fingerprint_module, "stack_distances", "reuse.olken",
        "reuse.olken.stack_distances",
        _count("reuse.olken.accesses", lambda args, _: len(args[0])),
    )
    inst.wrap(
        fingerprint_module, "previous_occurrences", "reuse.olken",
        "reuse.olken.previous_occurrences",
    )
    inst.wrap(JobServer, "_run_batch", "serve", "serve.batch")
    return inst
