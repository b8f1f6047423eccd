"""Figure 8: performance gain from hardware prefetching.

Regenerates the paper's Figure 8 bars: percentage speedup with the
stride prefetcher enabled, for each workload in serial and 16-thread
mode, from the coverage/bandwidth/CPI model in
:mod:`repro.perf.prefetch_study`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.report import render_table
from repro.perf.prefetch_study import PrefetchGain, prefetch_study


@dataclass(frozen=True)
class Fig8Row:
    workload: str
    serial: PrefetchGain
    parallel: PrefetchGain

    @property
    def parallel_wins(self) -> bool:
        return self.parallel.speedup_percent > self.serial.speedup_percent


def generate() -> list[Fig8Row]:
    """Compute the Figure 8 data (serial + 16-thread gains)."""
    return [
        Fig8Row(workload=name, serial=serial, parallel=parallel)
        for name, (serial, parallel) in prefetch_study(threads_parallel=16).items()
    ]


def main() -> None:
    """Print the Figure 8 prefetch-gain table."""
    rows = generate()
    print(
        render_table(
            ["Workload", "Serial gain", "16-thread gain", "Coverage", "16T headroom", "Bigger winner"],
            [
                (
                    r.workload,
                    f"{r.serial.speedup_percent:5.1f}%",
                    f"{r.parallel.speedup_percent:5.1f}%",
                    f"{r.serial.coverage_memory:4.2f}",
                    f"{r.parallel.headroom:4.2f}",
                    "parallel" if r.parallel_wins else "serial",
                )
                for r in rows
            ],
            title="Figure 8: performance gain of hardware prefetch",
        )
    )


if __name__ == "__main__":
    main()
