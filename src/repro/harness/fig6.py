"""Figure 6: LLC MPKI versus cache size on the LCMP.

Regenerates the paper's Figure 6 series: shared-LLC misses per 1000
instructions for all eight workloads, swept over 4 MB-256 MB at a 64 B
line size, on the LCMP configuration.
"""

from __future__ import annotations

from repro.core.experiment import LCMP
from repro.harness.figures import SweepFigure, cache_sweep_figure
from repro.units import format_size


def generate() -> SweepFigure:
    """Compute the Figure 6 data."""
    return cache_sweep_figure(LCMP, 6)


def main() -> None:
    """Print the Figure 6 series and working-set knees."""
    figure = generate()
    print(figure.render())
    print()
    for name, knee in figure.knees.items():
        location = format_size(knee) if knee else "none <= 256MB (flat)"
        print(f"  working-set knee for {name}: {location}")


if __name__ == "__main__":
    main()
