"""SNP: Bayesian-network structure learning over genotype data."""

from __future__ import annotations

from repro.mining.bayesnet import traced_snp_kernel
from repro.workloads.base import Workload
from repro.workloads.profiles import CATEGORIES, PAPER_TABLE1, memory_model


def thread_args(threads: int) -> list[dict]:
    """Every thread's kernel arguments: one mapping, the same for all."""
    # Category A: all threads run the identical search over the same
    # genotype matrix (one dataset seed, one shared arena base), so
    # their traces are identical and a capture runs the kernel once.
    return [
        {"n_sequences": 120, "length": 10, "seed": 7} for _ in range(threads)
    ]


def build() -> Workload:
    """The SNP workload (Section 2.1): hill-climbing BN learning."""
    return Workload(
        name="SNP",
        description="Bayesian-network structure learning on SNP genotype "
        "sequences via hill climbing (HGBASE-like data).",
        category=CATEGORIES["SNP"],
        model=memory_model("SNP"),
        kernel=traced_snp_kernel,
        thread_args=thread_args,
        table1_parameters=PAPER_TABLE1["SNP"][0],
        table1_dataset=PAPER_TABLE1["SNP"][1],
    )
