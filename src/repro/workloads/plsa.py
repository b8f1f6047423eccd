"""PLSA: parallel linear-space Smith-Waterman sequence alignment."""

from __future__ import annotations

from repro.mining.align import traced_plsa_kernel
from repro.workloads.base import Workload
from repro.workloads.profiles import CATEGORIES, PAPER_TABLE1, memory_model


def thread_args(threads: int) -> list[dict]:
    """Each thread's kernel arguments: its block of every DP row."""
    # The parallel algorithm blocks each DP row across threads; the
    # sequences are shared, row slices are private.
    return [
        {"length": 192, "threads": threads, "thread_id": t, "seed": 29}
        for t in range(threads)
    ]


def build() -> Workload:
    """The PLSA workload (Section 2.4): wavefront-parallel local alignment."""
    return Workload(
        name="PLSA",
        description="Smith-Waterman local alignment of two long DNA "
        "sequences with the linear-space parallel algorithm.",
        category=CATEGORIES["PLSA"],
        model=memory_model("PLSA"),
        kernel=traced_plsa_kernel,
        thread_args=thread_args,
        table1_parameters=PAPER_TABLE1["PLSA"][0],
        table1_dataset=PAPER_TABLE1["PLSA"][1],
    )
