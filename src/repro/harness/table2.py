"""Table 2: workload characteristics (single-threaded, run to completion).

Regenerates every column of the paper's Table 2 from the calibrated
memory models and the CPI stack: IPC, instruction count, memory-
instruction percentages, and DL1/DL2 statistics on the measurement
machine (8 KB L1, 512 KB L2), with the paper's measured values beside
the model's for the EXPERIMENTS.md comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.report import render_table
from repro.perf.cpi import predicted_ipc
from repro.workloads.profiles import PAPER_TABLE2, WORKLOAD_NAMES, memory_model


@dataclass(frozen=True)
class Table2Comparison:
    """One workload's paper-versus-model row."""

    workload: str
    ipc_paper: float
    ipc_model: float
    instructions_billions: float
    mem_pct_paper: float
    mem_read_pct_paper: float
    dl1_accesses_model: float
    dl1_mpki_paper: float
    dl1_mpki_model: float
    dl2_mpki_paper: float
    dl2_mpki_model: float


def _comparison_row(name: str) -> Table2Comparison:
    """One workload's paper-versus-model row."""
    paper = PAPER_TABLE2[name]
    model = memory_model(name)
    dl1 = model.dl1_mpki()
    dl2 = model.dl2_mpki()
    return Table2Comparison(
        workload=name,
        ipc_paper=paper.ipc,
        ipc_model=predicted_ipc(name, dl1, dl2),
        instructions_billions=paper.instructions_billions,
        mem_pct_paper=paper.mem_instruction_pct,
        mem_read_pct_paper=paper.mem_read_pct,
        dl1_accesses_model=model.apki,
        dl1_mpki_paper=paper.dl1_mpki,
        dl1_mpki_model=dl1,
        dl2_mpki_paper=paper.dl2_mpki,
        dl2_mpki_model=dl2,
    )


def generate() -> list[Table2Comparison]:
    """Compute the Table 2 reproduction for all eight workloads."""
    return [_comparison_row(name) for name in WORKLOAD_NAMES]


def main() -> None:
    """Print the Table 2 paper-versus-model comparison."""
    rows = generate()
    print(
        render_table(
            [
                "Workload",
                "IPC paper",
                "IPC model",
                "Inst (B)",
                "%Mem",
                "%MemRead",
                "DL1 acc/1k",
                "DL1 MPKI paper",
                "DL1 MPKI model",
                "DL2 MPKI paper",
                "DL2 MPKI model",
            ],
            [
                (
                    r.workload,
                    f"{r.ipc_paper:.2f}",
                    f"{r.ipc_model:.2f}",
                    f"{r.instructions_billions:.2f}",
                    f"{r.mem_pct_paper:.2f}%",
                    f"{r.mem_read_pct_paper:.2f}%",
                    f"{r.dl1_accesses_model:.0f}",
                    f"{r.dl1_mpki_paper:.2f}",
                    f"{r.dl1_mpki_model:.2f}",
                    f"{r.dl2_mpki_paper:.2f}",
                    f"{r.dl2_mpki_model:.2f}",
                )
                for r in rows
            ],
            title="Table 2: workload characteristics (paper vs model)",
        )
    )


if __name__ == "__main__":
    main()
