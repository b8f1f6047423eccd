"""Shared machinery for the Figure 4-7 sweeps."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.experiment import CMPConfig, working_set_knee
from repro.harness.report import render_series_table
from repro.units import MB, PAPER_CACHE_SWEEP, PAPER_LINE_SWEEP, format_size
from repro.workloads.profiles import WORKLOAD_NAMES, memory_model


@dataclass(frozen=True)
class SweepFigure:
    """One figure's data: MPKI series per workload over a swept axis."""

    title: str
    axis_label: str
    axis_values: tuple[int, ...]
    series: dict[str, tuple[float, ...]]
    knees: dict[str, int | None]

    def render(self) -> str:
        return render_series_table(
            self.axis_label,
            [format_size(v) for v in self.axis_values],
            {name: list(values) for name, values in self.series.items()},
            title=self.title,
        )


def cache_sweep_figure(cmp_config: CMPConfig, figure_number: int) -> SweepFigure:
    """Figures 4-6: LLC MPKI versus cache size on one CMP."""
    series = {
        name: tuple(
            memory_model(name).llc_mpki(size, 64, cmp_config.threads)
            for size in PAPER_CACHE_SWEEP
        )
        for name in WORKLOAD_NAMES
    }
    knees = {
        name: working_set_knee(list(zip(PAPER_CACHE_SWEEP, values)))
        for name, values in series.items()
    }
    return SweepFigure(
        title=(
            f"Figure {figure_number}: LLC misses per 1000 instructions on "
            f"{cmp_config.name} ({cmp_config.cores} cores), 64B lines"
        ),
        axis_label="LLC size",
        axis_values=PAPER_CACHE_SWEEP,
        series=series,
        knees=knees,
    )


def line_sweep_figure(cmp_config: CMPConfig, cache_size: int = 32 * MB) -> SweepFigure:
    """Figure 7: LLC MPKI versus line size at a 32 MB LLC on the LCMP."""
    series = {
        name: tuple(
            memory_model(name).llc_mpki(cache_size, line, cmp_config.threads)
            for line in PAPER_LINE_SWEEP
        )
        for name in WORKLOAD_NAMES
    }
    return SweepFigure(
        title=(
            f"Figure 7: line-size sensitivity on {cmp_config.name} with a "
            f"{format_size(cache_size)} LLC"
        ),
        axis_label="line size",
        axis_values=PAPER_LINE_SWEEP,
        series=series,
        knees={},
    )
