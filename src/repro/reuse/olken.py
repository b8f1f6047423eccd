"""Exact LRU stack distances, counted offline for a whole chunk.

For each access, the stack distance is the number of *distinct* lines
referenced since the previous reference to the same line; cold (first)
references get :data:`COLD`.  A fully-associative LRU cache of capacity
``C`` lines misses exactly the accesses with distance >= C, which is the
bridge between trace simulation and the analytic models — and the
property the test suite verifies against :class:`FullyAssociativeLRU`.

Olken's algorithm walks a tree once per access.  A chunk is known in
full, so this module answers every access at once instead.  Let
``prev[t]`` be the index of the previous access to access ``t``'s line
(-1 when cold).  An access ``q`` strictly between ``p = prev[t]`` and
``t`` is the first touch of its line in that window exactly when
``prev[q] < p``, and every ``q <= p`` has ``prev[q] < p``.  So for a
warm access::

    distance[t] = #{q < t : prev[q] < p} - (p + 1)

The count is a two-dimensional dominance count: earlier in time and
smaller in ``prev``.  A wavelet matrix over the sequence ``prev + 1``
(Claude and Navarro, "The Wavelet Matrix", SPIRE 2012) answers it for
every access together.  It has one level per bit, most significant
first.  Each level stores its bit of every value, in the order the
level above leaves them after a stable partition on its own bit (zeros
first); the number of zeros before a position says where a range lands
on the next level.  Following the range ``[0, t)`` down with the bits
of ``prev[t] + 1``, each level where that bit is 1 adds the zeros
inside the range: the earlier accesses that agree on every higher bit
and are smaller at this one.  The range end is always access ``t``'s
own position, so only the range start needs tracking.

Cost: :func:`previous_occurrences` is one stable argsort, and the count
is one level per bit of ``N`` with O(N) numpy work each (a scatter, a
cumulative sum, two gathers and a few elementwise operations).  No
Python code runs per access.  Index arrays are int32 while ``N``
allows.  ``benchmarks/test_simulator_throughput.py`` holds a throughput
floor over this path.
"""

from __future__ import annotations

import numpy as np

from repro.trace.record import TraceChunk

#: Sentinel distance for cold (first-ever) references.
COLD: int = -1


def previous_occurrences(lines: np.ndarray) -> np.ndarray:
    """Index of each access's previous same-line access (-1 when cold).

    Vectorized: one stable argsort of the line values orders each
    line's accesses by time, so neighbours with equal lines link.
    """
    lines = np.asarray(lines)
    previous = np.full(len(lines), -1, dtype=np.int64)
    order = np.argsort(lines, kind="stable")
    ordered = lines[order]
    same_line = ordered[1:] == ordered[:-1]
    previous[order[1:][same_line]] = order[:-1][same_line]
    return previous


def stack_distances(chunk: TraceChunk, line_size: int = 64) -> np.ndarray:
    """Exact per-access stack distances of ``chunk`` at ``line_size``.

    Returns an int64 array; cold references are :data:`COLD`.
    Distances are in cache lines.
    """
    previous = previous_occurrences(chunk.lines(line_size))
    n = len(previous)
    # Every intermediate below stays under 2n.
    index = np.int32 if n < 1 << 30 else np.int64
    value = (previous + 1).astype(index)
    position = np.arange(n, dtype=index)  # range end: the access itself
    start = np.zeros(n, dtype=index)  # range start
    smaller = np.zeros(n, dtype=index)  # #{q < t : prev[q] < prev[t]}
    zeros_before = np.zeros(n + 1, dtype=index)
    level_zero = np.empty(n, dtype=bool)
    for shift in range((n - 1).bit_length() - 1, -1, -1):
        bit = (value >> shift) & 1
        level_zero[position] = bit == 0
        np.cumsum(level_zero, out=zeros_before[1:])
        zeros = zeros_before[n]
        start_rank = zeros_before.take(start)
        end_rank = zeros_before.take(position)
        smaller += bit * (end_rank - start_rank)
        # Zeros move to the front, ones after all zeros (an arithmetic
        # select: np.where is several times slower on random bits).
        start = start_rank + bit * (zeros + start - 2 * start_rank)
        position = end_rank + bit * (zeros + position - 2 * end_rank)
    return np.where(previous >= 0, smaller - previous - 1, COLD)


def miss_count(distances: np.ndarray, capacity_lines: int, count_cold: bool = True) -> int:
    """Misses a fully-associative LRU cache of ``capacity_lines`` incurs."""
    capacity_misses = int(np.count_nonzero(distances >= capacity_lines))
    if count_cold:
        return capacity_misses + int(np.count_nonzero(distances == COLD))
    return capacity_misses


def miss_curve(
    distances: np.ndarray, capacities: list[int], count_cold: bool = True
) -> list[tuple[int, int]]:
    """Miss counts across several capacities from one distance array."""
    return [(c, miss_count(distances, c, count_cold)) for c in capacities]
