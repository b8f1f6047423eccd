"""Figure 5: LLC MPKI versus cache size on the MCMP.

Regenerates the paper's Figure 5 series: shared-LLC misses per 1000
instructions for all eight workloads, swept over 4 MB-256 MB at a 64 B
line size, on the MCMP configuration.
"""

from __future__ import annotations

from repro.core.experiment import MCMP
from repro.harness.figures import SweepFigure, cache_sweep_figure
from repro.units import format_size


def generate() -> SweepFigure:
    """Compute the Figure 5 data."""
    return cache_sweep_figure(MCMP, 5)


def main() -> None:
    """Print the Figure 5 series and working-set knees."""
    figure = generate()
    print(figure.render())
    print()
    for name, knee in figure.knees.items():
        location = format_size(knee) if knee else "none <= 256MB (flat)"
        print(f"  working-set knee for {name}: {location}")


if __name__ == "__main__":
    main()
