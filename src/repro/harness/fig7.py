"""Figure 7: line-size sensitivity on the LCMP with a 32 MB LLC.

Regenerates the paper's Figure 7: LLC MPKI for line sizes from 64 B to
4 KB.  The paper's reading — SHOT, MDS, SNP, and SVM-RFE get near-linear
reductions up to 256 B with diminishing returns beyond, other workloads
improve modestly, and 256 B captures most of the benefit — is printed as
per-workload 64 B→256 B reduction factors.
"""

from __future__ import annotations

from repro.core.experiment import LCMP
from repro.harness.figures import SweepFigure, line_sweep_figure
from repro.units import MB, PAPER_LINE_SWEEP


def generate() -> SweepFigure:
    """Compute the Figure 7 data."""
    return line_sweep_figure(LCMP, 32 * MB)


def reduction_factors(figure: SweepFigure) -> dict[str, float]:
    """Per-workload MPKI reduction from 64 B to 256 B lines."""
    index_256 = PAPER_LINE_SWEEP.index(256)
    factors = {}
    for name, values in figure.series.items():
        baseline = values[0]
        at_256 = values[index_256]
        factors[name] = baseline / at_256 if at_256 > 1e-12 else float("inf")
    return factors


def main() -> None:
    """Print the Figure 7 series and reduction factors."""
    figure = generate()
    print(figure.render())
    print()
    print("MPKI reduction factor, 64B -> 256B lines:")
    for name, factor in sorted(reduction_factors(figure).items(), key=lambda kv: -kv[1]):
        print(f"  {name:9} {factor:5.2f}x")


if __name__ == "__main__":
    main()
