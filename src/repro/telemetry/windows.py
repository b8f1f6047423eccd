"""The live 500 µs window stream: the CB host-pull, mirrored.

On the paper's platform a host computer polls the CB FPGA every 500 µs
and logs per-window cache statistics; the time-resolved MPKI curves in
the evaluation come from that stream, not from end-of-run totals.  This
module gives the reproduction the same tap: when telemetry is enabled,
every :class:`~repro.cache.sampling.WindowSampler` publishes each
window sample — the *same* object it appends to its own accumulator —
into the registry and the event log the moment the emulated clock
closes the window.

Per published window the stream updates

* ``repro_window_mpki{series=...}`` (gauge) — the window's MPKI;
* ``repro_window_bandwidth_bytes_per_second{series=...}`` (gauge) —
  demand bandwidth, ``accesses × line_size`` over the window's span of
  emulated time;
* ``repro_windows_total{series=...}`` (counter);

and appends the sample to a per-series list, so the full series a run
produced is available for the profile and is *by construction* equal,
element for element, to ``CoSimResult.samples``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.telemetry.registry import MetricRegistry


@dataclass
class WindowSeries:
    """One emulator run's stream of window samples."""

    label: str
    line_size: int
    frequency_hz: float
    samples: list = field(default_factory=list)

    def mpki_series(self) -> list[float]:
        return [sample.mpki for sample in self.samples]

    def bandwidth(self, sample) -> float:
        """Demand bandwidth of one window in bytes per emulated second."""
        if sample.cycles <= 0:
            return 0.0
        seconds = sample.cycles / self.frequency_hz
        return sample.accesses * self.line_size / seconds


class WindowStream:
    """Registry-backed collector of every live window series."""

    def __init__(
        self,
        registry: MetricRegistry,
        on_window: Callable[[WindowSeries, object], None] | None = None,
    ) -> None:
        self.registry = registry
        self.series: list[WindowSeries] = []
        self.on_window = on_window

    def open(
        self, label: str, line_size: int, frequency_hz: float
    ) -> Callable[[object], None]:
        """Start a new series; returns the per-sample publish callback.

        Repeated opens under one label (a size sweep re-running the same
        geometry) get distinct series; :meth:`latest` returns the newest.
        """
        series = WindowSeries(
            label=label, line_size=line_size, frequency_hz=frequency_hz
        )
        self.series.append(series)
        mpki_gauge = self.registry.gauge("repro_window_mpki", series=label)
        bandwidth_gauge = self.registry.gauge(
            "repro_window_bandwidth_bytes_per_second", series=label
        )
        windows_total = self.registry.counter("repro_windows_total", series=label)

        def publish(sample) -> None:
            series.samples.append(sample)
            mpki_gauge.set(sample.mpki)
            bandwidth_gauge.set(series.bandwidth(sample))
            windows_total.inc()
            if self.on_window is not None:
                self.on_window(series, sample)

        return publish

    def latest(self, label: str) -> WindowSeries | None:
        """The most recently opened series under ``label``."""
        for series in reversed(self.series):
            if series.label == label:
                return series
        return None
