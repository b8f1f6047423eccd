"""RSEARCH: RNA homolog search by SCFG/CYK database scanning."""

from __future__ import annotations

from repro.mining.scfg import traced_rsearch_kernel
from repro.workloads.base import Workload
from repro.workloads.profiles import CATEGORIES, PAPER_TABLE1, memory_model


def thread_args(threads: int) -> list[dict]:
    """Every thread's kernel arguments: one mapping, the same for all."""
    # Category B: the database is shared.  Every thread scans a slice
    # of the same length from the same addresses into a private CYK
    # chart laid out alike, so all threads run one kernel.
    slice_length = max(64, 360 // threads)
    return [
        {"database_length": slice_length, "window": 16, "step": 8, "seed": 13}
        for _ in range(threads)
    ]


def build() -> Workload:
    """The RSEARCH workload (Section 2.2): CYK scans over a database."""
    return Workload(
        name="RSEARCH",
        description="RNA secondary-structure homolog search: CYK decoding of "
        "a stochastic context-free grammar over a sequence database.",
        category=CATEGORIES["RSEARCH"],
        model=memory_model("RSEARCH"),
        kernel=traced_rsearch_kernel,
        thread_args=thread_args,
        table1_parameters=PAPER_TABLE1["RSEARCH"][0],
        table1_dataset=PAPER_TABLE1["RSEARCH"][1],
    )
