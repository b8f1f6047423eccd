"""CSV export of harness results.

Every exhibit can be written to CSV so downstream analysis (spreadsheet,
pandas, gnuplot) can consume the reproduction's numbers without parsing
ASCII tables.  ``repro-runall --csv DIR`` writes the full set.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

from repro.harness import fig4, fig5, fig6, fig7, fig8, projection, table2
from repro.harness.figures import SweepFigure
from repro.units import format_size


def write_sweep_csv(figure: SweepFigure, path: str | os.PathLike) -> None:
    """One row per workload, one column per swept axis value."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["workload", *[format_size(v) for v in figure.axis_values]])
        for name, values in figure.series.items():
            writer.writerow([name, *[f"{v:.6g}" for v in values]])


def write_table2_csv(path: str | os.PathLike) -> None:
    """Write the Table 2 paper-versus-model comparison as CSV."""
    rows = table2.generate()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "workload", "ipc_paper", "ipc_model", "instructions_billions",
                "mem_pct", "mem_read_pct", "dl1_accesses_pki",
                "dl1_mpki_paper", "dl1_mpki_model",
                "dl2_mpki_paper", "dl2_mpki_model",
            ]
        )
        for row in rows:
            writer.writerow(
                [
                    row.workload, row.ipc_paper, f"{row.ipc_model:.4f}",
                    row.instructions_billions, row.mem_pct_paper,
                    row.mem_read_pct_paper, f"{row.dl1_accesses_model:.1f}",
                    row.dl1_mpki_paper, f"{row.dl1_mpki_model:.4f}",
                    row.dl2_mpki_paper, f"{row.dl2_mpki_model:.4f}",
                ]
            )


def write_fig8_csv(path: str | os.PathLike) -> None:
    """Write the Figure 8 prefetch gains as CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["workload", "serial_gain_pct", "parallel_gain_pct", "coverage", "headroom_16t"]
        )
        for row in fig8.generate():
            writer.writerow(
                [
                    row.workload,
                    f"{row.serial.speedup_percent:.3f}",
                    f"{row.parallel.speedup_percent:.3f}",
                    f"{row.serial.coverage_memory:.4f}",
                    f"{row.parallel.headroom:.4f}",
                ]
            )


def write_projection_csv(path: str | os.PathLike) -> None:
    """Write the 128-core projection (with verdicts) as CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["workload", "category", "footprint_128c_bytes", "sram_mpki",
             "dram_mpki", "scaling_ratio", "stall_saving_pct", "dram_candidate"]
        )
        for row in projection.generate():
            writer.writerow(
                [
                    row.workload, row.category, int(row.footprint_128),
                    f"{row.dram.sram_mpki:.4f}", f"{row.dram.dram_mpki:.4f}",
                    f"{row.dram.scaling_ratio:.4f}",
                    f"{row.dram.stall_saving_percent:.2f}",
                    row.dram_candidate,
                ]
            )


def export_all(directory: str | os.PathLike) -> list[Path]:
    """Write every exhibit's CSV into ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    table2_path = directory / "table2.csv"
    write_table2_csv(table2_path)
    written.append(table2_path)

    for module, name in ((fig4, "fig4"), (fig5, "fig5"), (fig6, "fig6"), (fig7, "fig7")):
        path = directory / f"{name}.csv"
        write_sweep_csv(module.generate(), path)
        written.append(path)

    fig8_path = directory / "fig8.csv"
    write_fig8_csv(fig8_path)
    written.append(fig8_path)

    projection_path = directory / "projection.csv"
    write_projection_csv(projection_path)
    written.append(projection_path)
    return written
