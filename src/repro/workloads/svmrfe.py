"""SVM-RFE: support-vector classification with recursive feature elimination."""

from __future__ import annotations

from repro.mining.svm import traced_rfe_kernel
from repro.workloads.base import Workload
from repro.workloads.profiles import CATEGORIES, PAPER_TABLE1, memory_model


def thread_args(threads: int) -> list[dict]:
    """Every thread's kernel arguments: one mapping, the same for all."""
    # Category A: all threads run the identical RFE training over the
    # same expression matrix (one dataset seed, one shared arena base),
    # so their traces are identical and a capture runs the kernel once.
    return [
        {"samples": 20, "genes": 64, "keep": 6, "seed": 11} for _ in range(threads)
    ]


def build() -> Workload:
    """The SVM-RFE workload (Section 2.2): gene selection on micro-arrays."""
    return Workload(
        name="SVM-RFE",
        description="Linear SVM training with recursive feature elimination "
        "on gene-expression data (cancer micro-array-like).",
        category=CATEGORIES["SVM-RFE"],
        model=memory_model("SVM-RFE"),
        kernel=traced_rfe_kernel,
        thread_args=thread_args,
        table1_parameters=PAPER_TABLE1["SVM-RFE"][0],
        table1_dataset=PAPER_TABLE1["SVM-RFE"][1],
    )
