"""The 128-core projection (Section 4.3's forward-looking discussion).

The paper extrapolates from the 8/16/32-core measurements: "we believe
that the cache performance of these workloads [PLSA, MDS, SVM-RFE, SNP]
will not scale on a large number of cores, even on 128 cores.  For
these workloads, a small LLC, such as 8MB, will deliver a good memory
subsystem performance. ... [FIMI and RSEARCH's] working set will exceed
32MB on 128 cores.  Thus, a large DRAM cache can provide good memory
subsystem performance. ... [SHOT and VIEWTYPE] are certain to be good
candidates for large DRAM caches" — in total, "5 of the 8 workloads
will benefit from a large DRAM cache when scaled to a 128-core CMP."

This harness runs that projection through the models: working sets at
128 cores, the MPKI curves, and the SRAM-versus-DRAM-cache AMAT verdict
per workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.experiment import XLCMP
from repro.harness.report import render_table
from repro.perf.dramcache import DramCacheResult, evaluate_dram_cache
from repro.units import format_size
from repro.workloads.profiles import CATEGORIES, WORKLOAD_NAMES, memory_model

#: The paper's projection: these five workloads benefit from a large
#: DRAM cache at 128 cores (category B + C plus MDS's huge matrix).
PAPER_DRAM_BENEFICIARIES = ("FIMI", "RSEARCH", "SHOT", "VIEWTYPE", "MDS")


@dataclass(frozen=True)
class ProjectionRow:
    workload: str
    category: str
    footprint_128: float
    dram: DramCacheResult

    @property
    def dram_candidate(self) -> bool:
        return self.dram.benefits


def generate(threads: int = 128) -> list[ProjectionRow]:
    """Project every workload to ``threads`` cores."""
    return [
        ProjectionRow(
            workload=name,
            category=CATEGORIES[name],
            footprint_128=memory_model(name).footprint_bytes(threads),
            dram=evaluate_dram_cache(name, threads),
        )
        for name in WORKLOAD_NAMES
    ]


def main() -> None:
    """Print the 128-core projection table and verdict."""
    rows = generate()
    print(
        render_table(
            [
                "Workload",
                "Category",
                "Footprint @128c",
                "MPKI @8MB SRAM",
                "MPKI @128MB DRAM$",
                "WS scaling 1c->128c",
                "Stall saved",
                "Verdict",
            ],
            [
                (
                    r.workload,
                    r.category,
                    format_size(int(r.footprint_128)),
                    f"{r.dram.sram_mpki:.2f}",
                    f"{r.dram.dram_mpki:.2f}",
                    f"{r.dram.scaling_ratio:.2f}x",
                    f"{r.dram.stall_saving_percent:.0f}%",
                    "DRAM cache" if r.dram_candidate else "8MB SRAM ok",
                )
                for r in rows
            ],
            title=f"{XLCMP.name}: Section 4.3's 128-core projection",
        )
    )
    beneficiaries = [r.workload for r in rows if r.dram_candidate]
    print()
    print(
        f"DRAM-cache beneficiaries: {len(beneficiaries)} of 8 "
        f"({', '.join(beneficiaries)}) — paper projects 5 of 8."
    )


if __name__ == "__main__":
    main()
