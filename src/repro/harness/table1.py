"""Table 1: input parameters and datasets.

The paper's Table 1 lists each workload's input parameters and dataset
size; our reproduction adds the synthetic-substitute description and
the reduced scale the instrumented kernels run at, making the
substitutions auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.profiles import PAPER_TABLE1, WORKLOAD_NAMES
from repro.harness.report import render_table

#: What replaces each real dataset (see mining.datasets).
SUBSTITUTES: dict[str, str] = {
    "SNP": "linked-loci binary genotype matrix (datasets.genotype_matrix)",
    "SVM-RFE": "two-class expression matrix, planted informative genes (datasets.micro_array)",
    "RSEARCH": "uniform nucleotide database with planted hairpin homologs (datasets.rna_database)",
    "FIMI": "Zipf-popularity transactions, geometric sizes (datasets.transactions)",
    "PLSA": "homologous DNA pair with point mutations and indels (datasets.dna_pair)",
    "MDS": "Zipf-vocabulary topical document collection (datasets.document_set)",
    "SHOT": "synthetic sports broadcast with scene cuts (datasets.synthetic_video)",
    "VIEWTYPE": "same video; playfield area varies by view type (datasets.synthetic_video)",
}


@dataclass(frozen=True)
class Table1Row:
    workload: str
    paper_parameters: str
    paper_dataset: str
    substitute: str


def generate() -> list[Table1Row]:
    """The Table 1 reproduction rows, in the paper's order."""
    return [
        Table1Row(
            workload=name,
            paper_parameters=PAPER_TABLE1[name][0],
            paper_dataset=PAPER_TABLE1[name][1],
            substitute=SUBSTITUTES[name],
        )
        for name in WORKLOAD_NAMES
    ]


def main() -> None:
    """Print the Table 1 reproduction."""
    rows = generate()
    print(
        render_table(
            ["Workload", "Parameters (paper)", "Dataset (paper)", "Synthetic substitute"],
            [(r.workload, r.paper_parameters, r.paper_dataset, r.substitute) for r in rows],
            title="Table 1: input parameters and datasets",
        )
    )


if __name__ == "__main__":
    main()
