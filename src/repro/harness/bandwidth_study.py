"""FSB bandwidth-demand study.

The paper's conclusions repeatedly invoke bandwidth: large DRAM caches
"reduce the latency and bandwidth to main memory", and Section 4.4's
prefetch asymmetry hinges on which workloads saturate the shared bus.
This harness quantifies the demand-miss bandwidth of every workload on
the three CMPs, from the calibrated models and the CPI stack — the
memory-system sizing numbers a platform architect would pull from this
study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.experiment import ALL_CMPS, CMPConfig
from repro.harness.report import render_table
from repro.perf.bandwidth import BusModel
from repro.perf.cpi import cpi_stack
from repro.units import MB
from repro.workloads.profiles import WORKLOAD_NAMES, memory_model

if TYPE_CHECKING:
    from repro.simpoint import SampleSpec
    from repro.trace.cache import TraceCache


@dataclass(frozen=True)
class BandwidthRow:
    workload: str
    cmp_name: str
    cores: int
    llc_mpki: float
    demand_gb_per_s: float
    bus_utilization: float


def _bandwidth_row(
    name: str, cmp_config: CMPConfig, llc_size: int, bus: BusModel
) -> BandwidthRow:
    """One (workload × CMP) bandwidth point."""
    model = memory_model(name)
    mpki = model.llc_mpki(llc_size, 64, cmp_config.cores)
    cpi = cpi_stack(name, model.dl1_mpki(), model.dl2_mpki()).total
    demand = bus.demand_bandwidth(mpki, cpi, cmp_config.cores)
    return BandwidthRow(
        workload=name,
        cmp_name=cmp_config.name,
        cores=cmp_config.cores,
        llc_mpki=mpki,
        demand_gb_per_s=demand / 1e9,
        bus_utilization=bus.utilization(mpki, cpi, cmp_config.cores),
    )


def generate(
    llc_size: int = 32 * MB,
    bus: BusModel | None = None,
    cmps: tuple[CMPConfig, ...] = ALL_CMPS,
) -> list[BandwidthRow]:
    """Demand bandwidth of each workload at a 32 MB LLC on each CMP."""
    bus = bus or BusModel()
    return [
        _bandwidth_row(name, cmp_config, llc_size, bus)
        for cmp_config in cmps
        for name in WORKLOAD_NAMES
    ]


def measured_demand(
    workload_name: str = "FIMI",
    cores: int = 4,
    cache_sizes: tuple[int, ...] = (4 * MB, 32 * MB),
    bus: BusModel | None = None,
    trace_cache: "TraceCache | None" = None,
    sample: "SampleSpec | None" = None,
) -> list[tuple[int, float, float, float]]:
    """Exact-path demand bandwidth: (LLC size, MPKI, GB/s, MPKI error).

    The model path above projects bandwidth from calibrated MPKI
    curves; this cross-check measures MPKI by running the instrumented
    kernel through the replay engine — one captured trace, one emulator
    pass per LLC size — and feeds the measured rate through the same
    :class:`BusModel`.  With ``sample``, the sweep goes through sampled
    simulation instead: MPKI is an estimate and the final tuple element
    carries its error bar (zero on the exact path).
    """
    from repro.harness.replay import replay_sweep, size_sweep_configs
    from repro.workloads.registry import get_workload

    bus = bus or BusModel()
    workload = get_workload(workload_name)
    configs = size_sweep_configs(list(cache_sizes))
    key_extra = {"source": "kernel"}
    if sample is not None:
        from repro.harness.replay import load_or_capture, log_cache_key
        from repro.simpoint import sampled_sweep

        log, _ = load_or_capture(
            workload.kernel_guest(),
            cores,
            trace_cache=trace_cache,
            key_extra=key_extra,
        )
        log_key = (
            log_cache_key(workload.name, cores, 4096, 8192, key_extra)
            if trace_cache is not None
            else None
        )
        sampled = sampled_sweep(
            log, configs, sample, trace_cache=trace_cache, log_key=log_key
        )
        points = [(result.mpki.value, result.mpki.error) for result in sampled]
    else:
        results = replay_sweep(
            workload.kernel_guest(),
            cores,
            configs,
            trace_cache=trace_cache,
            key_extra=key_extra,
        )
        points = [(result.mpki, 0.0) for result in results]
    cpi = cpi_stack(
        workload_name,
        memory_model(workload_name).dl1_mpki(),
        memory_model(workload_name).dl2_mpki(),
    ).total
    return [
        (size, mpki, bus.demand_bandwidth(mpki, cpi, cores) / 1e9, error)
        for size, (mpki, error) in zip(cache_sizes, points)
    ]


def main(
    trace_cache: "TraceCache | None" = None,
    sample: "SampleSpec | None" = None,
) -> None:
    """Print per-CMP bandwidth-demand tables.

    ``sample`` routes the exact-path cross-check through sampled
    simulation: the table is labelled ``[sampled]`` and its MPKI cells
    carry error bars.
    """
    rows = generate()
    by_cmp: dict[str, list[BandwidthRow]] = {}
    for row in rows:
        by_cmp.setdefault(row.cmp_name, []).append(row)
    for cmp_name, cmp_rows in by_cmp.items():
        print(
            render_table(
                ["Workload", "LLC MPKI", "demand GB/s", "bus utilization"],
                [
                    (
                        r.workload,
                        f"{r.llc_mpki:.2f}",
                        f"{r.demand_gb_per_s:.2f}",
                        f"{100 * r.bus_utilization:.0f}%",
                    )
                    for r in cmp_rows
                ],
                title=(
                    f"Memory bandwidth demand on {cmp_name} "
                    f"({cmp_rows[0].cores} cores, 32MB LLC)"
                ),
            )
        )
        print()
    heaviest = max(rows, key=lambda r: r.demand_gb_per_s)
    print(
        f"Heaviest demand: {heaviest.workload} on {heaviest.cmp_name} "
        f"({heaviest.demand_gb_per_s:.1f} GB/s) — the workloads driving the "
        "paper's call for DRAM caches to 'reduce the latency and bandwidth "
        "to main memory'."
    )
    print()
    measured = measured_demand(trace_cache=trace_cache, sample=sample)
    title = "Exact-path cross-check: FIMI kernel on 4 cores (replay engine)"
    if sample is not None:
        title += " [sampled]"
    print(
        render_table(
            ["LLC size", "measured MPKI", "demand GB/s"],
            [
                (
                    f"{size // MB}MB",
                    f"{mpki:.2f}±{error:.2f}" if sample is not None else f"{mpki:.2f}",
                    f"{gb_per_s:.2f}",
                )
                for size, mpki, gb_per_s, error in measured
            ],
            title=title,
        )
    )


if __name__ == "__main__":
    main()
