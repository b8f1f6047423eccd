"""The ambient telemetry runtime: one process-wide switch and its state.

Everything the instrumented layers call lives here, and every entry
point has a disabled fast path that costs one attribute read plus (at
most) a no-op method call:

* :func:`enabled` — the switch;
* :func:`counter` / :func:`gauge` / :func:`histogram` — registry
  metrics when enabled, the shared :data:`~repro.telemetry.registry.
  NULL_METRIC` when disabled;
* :func:`span` — a real tracked span when enabled, one shared reusable
  null context manager when disabled (no allocation per call);
* :func:`window_publisher` — the live window stream's per-sample
  callback when enabled, None when disabled (producers skip the hook
  entirely on None);
* :func:`event` — a JSONL event when a sink is attached, else nothing.

:func:`configure` installs fresh state (registry, span tracker, window
stream, optional JSONL sink), so every run starts from zero counters;
:func:`shutdown` flushes the final metric snapshot into the event log
and closes it.  The state is process-local.  A forked sweep worker
inherits the session that was active when it forked: its spans and
window events reach the same JSONL event log, but its registry is a
copy the parent never reads, so ``--profile`` and ``--metrics-file``
leave worker-side counters out.  The parent publishes the workers'
result aggregates instead (see ``repro.telemetry.profile``), so fan
-out width never changes what a metric means.  Because workers keep
their session, the worker pool is bound to the session it forked
under (:func:`current_session`).

Telemetry deliberately never touches simulation state, RNG streams, or
result values: with the switch off the platform's outputs are
byte-identical to a build without telemetry at all, and the tier-1
differential tests pin that down.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator

from repro.telemetry.registry import NULL_METRIC, MetricRegistry
from repro.telemetry.sinks import JsonlSink, snapshot_events
from repro.telemetry.spans import SpanRecord, SpanTracker
from repro.telemetry.windows import WindowStream


class _State:
    """Everything one enabled telemetry session owns."""

    def __init__(self, events_path: str | None = None) -> None:
        self.registry = MetricRegistry()
        self.sink: JsonlSink | None = (
            JsonlSink(events_path) if events_path else None
        )
        self.tracker = SpanTracker(self.registry, on_close=self._span_closed)
        self.stream = WindowStream(self.registry, on_window=self._window_closed)

    def _span_closed(self, record: SpanRecord) -> None:
        if self.sink is not None:
            self.sink.emit(
                {
                    "event": "span",
                    "name": record.name,
                    "depth": record.depth,
                    "parent": record.parent,
                    "seconds": record.seconds,
                }
            )

    def _window_closed(self, series, sample) -> None:
        if self.sink is not None:
            self.sink.emit(
                {
                    "event": "window",
                    "series": series.label,
                    "index": sample.index,
                    "instructions": sample.instructions,
                    "accesses": sample.accesses,
                    "misses": sample.misses,
                    "mpki": sample.mpki,
                    "bandwidth_bytes_per_second": series.bandwidth(sample),
                }
            )


_state: _State | None = None

#: One reusable null context manager shared by every disabled span()
#: call — ``contextlib.nullcontext`` keeps no per-use state, so reuse
#: is safe and the disabled path allocates nothing.
_NULL_SPAN = nullcontext()


def configure(enabled: bool = True, events_path: str | None = None) -> None:
    """Flip the process-wide switch, installing fresh state when on.

    Enabling always starts from an empty registry — telemetry sessions
    never bleed counters into each other.  Disabling closes any open
    event sink (without the final snapshot; use :func:`shutdown` for a
    graceful end of session).
    """
    global _state
    if _state is not None and _state.sink is not None:
        _state.sink.close()
    _state = _State(events_path) if enabled else None


def shutdown() -> None:
    """End the session: snapshot every metric into the event log, close."""
    global _state
    if _state is None:
        return
    if _state.sink is not None:
        for event in snapshot_events(_state.registry):
            _state.sink.emit(event)
        _state.sink.close()
    _state = None


def enabled() -> bool:
    """Whether the process-wide telemetry switch is on."""
    return _state is not None


def current_session() -> object | None:
    """The live session's state object, or None when telemetry is off.

    Every :func:`configure` installs a new object, so identity tells
    two sessions apart.  The worker pool binds itself to one session
    with it (:mod:`repro.harness.executors.local`).
    """
    return _state


def registry() -> MetricRegistry | None:
    """The live registry, or None when telemetry is off."""
    return None if _state is None else _state.registry


def tracker() -> SpanTracker | None:
    """The live span tracker, or None when telemetry is off."""
    return None if _state is None else _state.tracker


def stream() -> WindowStream | None:
    """The live window stream, or None when telemetry is off."""
    return None if _state is None else _state.stream


def counter(name: str, **labels: str):
    """A registry counter when enabled, the shared null metric when not."""
    if _state is None:
        return NULL_METRIC
    return _state.registry.counter(name, **labels)


def gauge(name: str, **labels: str):
    """A registry gauge when enabled, the shared null metric when not."""
    if _state is None:
        return NULL_METRIC
    return _state.registry.gauge(name, **labels)


def histogram(name: str, buckets: tuple[float, ...] | None = None, **labels: str):
    """A registry histogram when enabled, the shared null metric when not."""
    if _state is None:
        return NULL_METRIC
    return _state.registry.histogram(name, buckets=buckets, **labels)


def span(name: str):
    """A timed span when enabled; the shared null context when not."""
    if _state is None:
        return _NULL_SPAN
    return _state.tracker.span(name)


def window_publisher(label: str, line_size: int, frequency_hz: float):
    """A per-sample publish callback, or None when telemetry is off.

    Producers wire the returned callable straight into
    :attr:`~repro.cache.sampling.WindowSampler.on_sample`; a None hook
    costs the sampler one ``is not None`` test per closed window.
    """
    if _state is None:
        return None
    return _state.stream.open(label, line_size, frequency_hz)


def event(payload: dict) -> None:
    """Emit one raw event into the JSONL log, if a sink is attached."""
    if _state is not None and _state.sink is not None:
        _state.sink.emit(payload)


@contextmanager
def session(
    enabled_: bool = True, events_path: str | None = None
) -> Iterator[None]:
    """configure()/shutdown() as a context manager (tests, scripts)."""
    configure(enabled_, events_path)
    try:
        yield
    finally:
        shutdown()
