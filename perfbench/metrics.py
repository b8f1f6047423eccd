"""Pure helpers the benchmark reports and checks with.

Nothing here imports the simulator, so the unit tests in
``perfbench/tests`` exercise the arithmetic without running a workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

#: The guide's tail rule: a percentile is resolved only when at least
#: this many samples lie beyond it.
TAIL_SAMPLES = 10

#: HTTP-style statuses the job server refuses admission with.
REFUSED_STATUSES = (429, 503)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (``pct`` in [0, 100]).

    The same estimator as ``statistics.quantiles(method="inclusive")``,
    but defined for one sample too, so short runs still report.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def resolved_tail(samples: int) -> int | None:
    """The highest whole percentile with ``TAIL_SAMPLES`` samples beyond it.

    With ``n`` samples, percentile ``p`` sits at nearest rank
    ``max(1, ceil(p * n / 100))`` and leaves ``n`` minus that rank above
    it; the answer is the largest ``p`` in 0..99 for which that count is
    at least ``TAIL_SAMPLES``, or None when no percentile is resolved
    (``n <= TAIL_SAMPLES``).
    """
    for pct in range(99, -1, -1):
        if samples - max(1, math.ceil(pct * samples / 100)) >= TAIL_SAMPLES:
            return pct
    return None


@dataclass
class Outcomes:
    """Operation accounting for one run: what was tried, what went wrong.

    ``refused`` counts admission refusals (429 queue full, 503 draining);
    ``failed`` counts operations that raised or returned an unusable
    job; ``mismatched`` counts results whose digest or error bar did not
    check out.  Every one of them is an operation that did not deliver a
    correct result, so all three count against ``error_rate``.
    """

    attempted: int = 0
    refused: int = 0
    failed: int = 0
    mismatched: int = 0
    notes: list[str] = field(default_factory=list)

    def refuse(self, status: int, why: str) -> None:
        if status not in REFUSED_STATUSES:
            raise ValueError(f"status {status} is not a refusal")
        self.refused += 1
        self.notes.append(f"refused ({status}): {why}")

    def fail(self, why: str) -> None:
        self.failed += 1
        self.notes.append(f"failed: {why}")

    def mismatch(self, why: str) -> None:
        self.mismatched += 1
        self.notes.append(f"mismatch: {why}")

    @property
    def errors(self) -> int:
        return self.refused + self.failed + self.mismatched

    @property
    def error_rate(self) -> float:
        return self.errors / self.attempted if self.attempted else 0.0


def check_digests(
    label: str,
    got: Sequence[str],
    expected: Sequence[str],
    outcomes: Outcomes,
) -> bool:
    """Compare result digests position by position; record a mismatch."""
    if list(got) == list(expected):
        return True
    outcomes.mismatch(f"{label}: digests {list(got)} != stored {list(expected)}")
    return False


def brackets(value: float, error: float, exact: float) -> bool:
    """True when ``value ± error`` contains ``exact`` (closed interval)."""
    return value - error <= exact <= value + error


def relative_error(value: float, exact: float) -> float:
    if exact == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - exact) / abs(exact)


def check_brackets(
    label: str,
    estimates: Sequence[tuple[float, float]],
    exact: Sequence[float],
    outcomes: Outcomes,
) -> float:
    """Check every ``(value, error)`` bar against its exact reference.

    Records one mismatch per bar that misses and returns the largest
    relative error of the estimates (bars that miss included).
    """
    if len(estimates) != len(exact):
        outcomes.mismatch(
            f"{label}: {len(estimates)} estimates for {len(exact)} references"
        )
        return math.inf
    worst = 0.0
    for (value, error), reference in zip(estimates, exact):
        if not brackets(value, error, reference):
            outcomes.mismatch(
                f"{label}: {value:.4f}±{error:.4f} misses exact {reference:.4f}"
            )
        worst = max(worst, relative_error(value, reference))
    return worst


def render_row(
    workload: str,
    metrics: Mapping[str, tuple[float, str]],
    samples: int,
    extra: str = "",
) -> str:
    """One human-readable row: every metric by name and unit."""
    cells = ", ".join(
        f"{name}={value:.6g} {unit}"
        for name, (value, unit) in metrics.items()
    )
    tail = resolved_tail(samples)
    resolved = "none" if tail is None else f"p{tail}"
    line = f"{workload:<13} n={samples} resolved_tail={resolved} {cells}"
    return f"{line} {extra}".rstrip()
