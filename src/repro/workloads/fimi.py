"""FIMI: frequent-itemset mining with FP-growth."""

from __future__ import annotations

from repro.mining.datasets import transactions
from repro.mining.fpgrowth import traced_fimi_kernel
from repro.workloads.base import Workload
from repro.workloads.profiles import CATEGORIES, PAPER_TABLE1, memory_model


def thread_args(threads: int) -> list[dict]:
    """Each thread's kernel arguments: its slice of one transaction set."""
    # Category B: every thread mines a portion of the same dataset,
    # generated once here and sliced per thread; private conditional
    # trees are the per-thread increment.
    data = tuple(
        tuple(transaction)
        for transaction in transactions(
            n_transactions=240, n_items=40, avg_length=6, seed=23
        )
    )
    share = max(1, len(data) // threads)
    return [
        {
            "transactions": data[t * share : (t + 1) * share] or data[:share],
            "min_support": 8,
        }
        for t in range(threads)
    ]


def build() -> Workload:
    """The FIMI workload (Section 2.3): the FP-Zhu three-stage pipeline."""
    return Workload(
        name="FIMI",
        description="Frequent-itemset mining: first scan, FP-tree "
        "construction, and recursive FP-growth (Kosarak-like transactions).",
        category=CATEGORIES["FIMI"],
        model=memory_model("FIMI"),
        kernel=traced_fimi_kernel,
        thread_args=thread_args,
        table1_parameters=PAPER_TABLE1["FIMI"][0],
        table1_dataset=PAPER_TABLE1["FIMI"][1],
    )
