"""Sampled stack-distance analysis (SHARDS-style).

Exact stack distances (:mod:`repro.reuse.olken`) cost a stable sort
plus one vectorized pass per bit of the trace length, about a second
per million accesses on a 2-vCPU VM.  The fixed-rate spatial-sampling
estimator (Waldspurger et al.'s SHARDS) cuts that cost by analysing
only a hash-selected subset of *lines*:

* a line is sampled iff ``hash(line) mod M < R·M`` — every access to a
  sampled line is analysed, accesses to unsampled lines are skipped
  entirely, so the sampled trace is a faithful sub-trace of the sampled
  lines' reuse behaviour;
* a sampled access's stack distance over the sampled lines
  underestimates the true distance by exactly the sampling rate in
  expectation, so distances are rescaled by ``1/R``;
* rates (accesses per 1000 instructions) are likewise scaled by ``1/R``.

The estimator converges to the exact profile as R→1 and is unbiased for
miss-ratio curves under the spatial-hash assumption;
``tests/test_reuse_sampling.py`` quantifies the error against the exact
analyser.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.reuse.histogram import ReuseProfile
from repro.reuse.olken import stack_distances
from repro.trace.record import TraceChunk

#: Modulus of the sampling hash (2^24 as in the SHARDS paper).
HASH_MODULUS = 1 << 24
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def sampled_lines_mask(lines: np.ndarray, rate: float) -> np.ndarray:
    """Boolean mask of accesses whose *line* falls in the sample.

    The hash is a fixed multiplicative mix, so the same line is either
    always sampled or never — the spatial-sampling property the
    distance rescaling depends on.
    """
    if not 0 < rate <= 1:
        raise ConfigurationError(f"rate must be in (0, 1], got {rate}")
    threshold = np.uint64(int(rate * HASH_MODULUS))
    hashed = (lines * _HASH_MULTIPLIER) >> np.uint64(40)  # top 24 bits
    return hashed < threshold


def sampled_profile(
    chunk: TraceChunk,
    instructions: int,
    rate: float = 0.1,
    line_size: int = 64,
) -> ReuseProfile:
    """Estimate a trace's reuse profile from a ``rate`` line sample."""
    if instructions <= 0:
        raise ConfigurationError(f"instructions must be positive, got {instructions}")
    lines = chunk.lines(line_size)
    mask = sampled_lines_mask(lines, rate)
    sampled = TraceChunk(
        chunk.addresses[mask], chunk.kinds[mask], chunk.cores[mask], chunk.pcs[mask]
    )
    if len(sampled) == 0:
        return ReuseProfile.empty()
    distances = stack_distances(sampled, line_size).astype(np.float64)
    cold = distances < 0
    distances[~cold] /= rate  # rescale sampled distances to full-trace scale
    distances[cold] = np.inf
    rates = np.full(len(distances), 1000.0 / instructions / rate)
    return ReuseProfile(distances, rates)


def sampled_mpki(
    chunk: TraceChunk,
    instructions: int,
    cache_size: int,
    rate: float = 0.1,
    line_size: int = 64,
) -> float:
    """Estimated misses per 1000 instructions at ``cache_size``."""
    profile = sampled_profile(chunk, instructions, rate, line_size)
    return profile.miss_rate(cache_size / line_size)
