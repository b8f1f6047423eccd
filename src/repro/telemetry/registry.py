"""The typed metric registry: counters, gauges, histograms.

The software counterpart of the CB FPGA's statistic block: a small,
zero-dependency set of named counters that every layer of the platform
can increment and one collector can read out.  Three metric types cover
what the co-simulation stack measures:

* :class:`Counter` — monotonically increasing totals (accesses snooped,
  points retried, faults injected);
* :class:`Gauge` — last-written values (the current window's MPKI, the
  sweep's completion fraction);
* :class:`Histogram` — bucketed distributions with Prometheus
  ``le``-semantics (per-point wall times).

Metrics are identified by ``(name, labels)``; :meth:`MetricRegistry.
counter` and friends are get-or-create, so call sites never coordinate.
When telemetry is disabled the runtime hands out :data:`NULL_METRIC`
instead — one shared object whose mutators are empty methods — so the
disabled hot path costs a method call, not a dict lookup.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import TelemetryError

#: Default histogram bucket upper edges (seconds): spans from a 100 µs
#: report render to a minutes-long capture all land in a useful bucket.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
    120.0,
)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (inc({n}))"
            )
        self.value += n


@dataclass
class Gauge:
    """A last-written value."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n


@dataclass
class Histogram:
    """A bucketed distribution with cumulative ``le`` exposition.

    ``buckets`` are the finite upper edges; an observation lands in the
    first bucket whose edge is >= the value (Prometheus semantics: the
    ``le`` boundary is inclusive).  Values above the last edge count
    only toward the implicit ``+Inf`` bucket.
    """

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(float(b) for b in self.buckets))
        if not self.buckets:
            raise TelemetryError(f"histogram {self.name} needs at least one bucket")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, float(value))] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for edge, n in zip(self.buckets, self.counts):
            running += n
            out.append((edge, running))
        out.append((float("inf"), self.count))
        return out


class _NullMetric:
    """Shared disabled-path stand-in: every mutator is a no-op."""

    __slots__ = ()

    def inc(self, n: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: The one null metric every disabled call site shares.
NULL_METRIC = _NullMetric()


class MetricRegistry:
    """Get-or-create store of typed metrics, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        self._types: dict[str, type] = {}

    def _get(self, cls: type, name: str, labels: Mapping[str, str], **kwargs):
        registered = self._types.get(name)
        if registered is not None and registered is not cls:
            raise TelemetryError(
                f"metric {name!r} is already registered as a "
                f"{registered.__name__}, not a {cls.__name__}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name=name, labels=key[1], **kwargs)
            self._metrics[key] = metric
            self._types[name] = cls
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        if buckets is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- read-out -----------------------------------------------------

    def __iter__(self) -> Iterator[object]:
        """Metrics in deterministic (name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str, **labels: str) -> float | None:
        """Current value of a counter/gauge, or None if never touched."""
        metric = self._metrics.get((name, _label_key(labels)))
        return None if metric is None else metric.value  # type: ignore[union-attr]

    def values_by_label(self, name: str) -> dict[tuple[tuple[str, str], ...], float]:
        """All label-variants of a counter/gauge name and their values."""
        return {
            key[1]: metric.value  # type: ignore[union-attr]
            for key, metric in sorted(self._metrics.items())
            if key[0] == name
        }
