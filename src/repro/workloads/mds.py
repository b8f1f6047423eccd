"""MDS: multi-document summarization (graph ranking + MMR)."""

from __future__ import annotations

from repro.mining.summarize import traced_mds_kernel
from repro.workloads.base import Workload
from repro.workloads.profiles import CATEGORIES, PAPER_TABLE1, memory_model


def thread_args(threads: int) -> list[dict]:
    """Every thread's kernel arguments: one mapping, the same for all."""
    # Category A: all threads iterate over the same similarity matrix
    # (identical dataset seed and arena base, so identical addresses).
    return [
        {
            "n_documents": 8,
            "sentences_per_document": 6,
            "k": 4,
            "iterations": 4,
            "seed": 31,
        }
        for _ in range(threads)
    ]


def build() -> Workload:
    """The MDS workload (Section 2.5): query-biased ranking + MMR."""
    return Workload(
        name="MDS",
        description="Multi-document summarization: sentence-graph power "
        "iteration with query bias, then maximum-marginal-relevance selection.",
        category=CATEGORIES["MDS"],
        model=memory_model("MDS"),
        kernel=traced_mds_kernel,
        thread_args=thread_args,
        table1_parameters=PAPER_TABLE1["MDS"][0],
        table1_dataset=PAPER_TABLE1["MDS"][1],
    )
