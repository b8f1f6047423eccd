"""Per-interval memory-behaviour fingerprints.

Each interval of the captured stream is summarized by a feature vector
built from :mod:`repro.reuse`:

* a **reuse-distance histogram** — exact LRU stack distances from the
  vectorized Olken engine (:func:`repro.reuse.olken.stack_distances`),
  computed over a SHARDS spatial line sample
  (:func:`repro.reuse.sampling.sampled_lines_mask`) so the cost is
  bounded by a fixed sample budget regardless of trace length, with
  distances rescaled by ``1/rate`` to full-trace line scale and binned
  into log2 buckets (plus a cold bucket);
* a **windowed footprint** — the fraction of the interval's sampled
  accesses that touch a line not referenced earlier in the same
  interval (distinct-lines-per-window, the working-set signal);
* the **per-core sharing mix** — which virtual cores issued the
  interval's traffic (Section 4.3's taxonomy is visible here: shared
  structures interleave cores, private working sets do not);
* the **read fraction** of the interval.

Rows are fractions, so intervals of different lengths (the last one is
partial) are comparable, and the Euclidean metric k-means uses treats
every feature on the same scale.  The histograms double as an analytic
miss-ratio predictor (:func:`predicted_miss_ratio`): a fully-associative
LRU cache of ``C`` lines misses the accesses with distance ≥ C, which
is what the error bars of the recombined estimate are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Vectorized log-gamma.  ``math.lgamma`` rather than scipy's
#: ``gammaln``: the hit curve feeds every sampled estimate, so a
#: different log-gamma could move sampled result digests.
gammaln = np.vectorize(math.lgamma, otypes=[np.float64])

from repro.reuse.olken import COLD, previous_occurrences, stack_distances
from repro.reuse.sampling import sampled_lines_mask
from repro.trace.record import AccessKind, TraceChunk

#: Log2 distance buckets 2^0 .. 2^33 (column 0 is the cold bucket).
DISTANCE_BUCKETS = 34

#: The cold-start histogram uses finer, quarter-log2 buckets: the
#: associativity-aware hit curve changes quickly near the capacity
#: knee, where octave-wide buckets would blur the correction.
COLD_BUCKETS_PER_OCTAVE = 4
COLD_BUCKETS = DISTANCE_BUCKETS * COLD_BUCKETS_PER_OCTAVE

#: Schema version stamped into cached fingerprint entries; bump on any
#: feature-layout change so stale cache entries miss instead of lying.
FINGERPRINT_VERSION = 1


@dataclass(frozen=True)
class FingerprintConfig:
    """Knobs of the fingerprinting pass.

    ``max_samples`` caps the SHARDS sub-trace the Olken engine sees —
    the sampling rate is ``min(1, max(min_rate, max_samples / N))`` —
    so fingerprinting cost stays roughly constant as traces grow, which
    is what keeps the sampled path 100-1000x-trace capable.
    """

    line_size: int = 64
    max_samples: int = 1 << 17
    min_rate: float = 1 / 4096


@dataclass(frozen=True)
class IntervalFingerprints:
    """Feature vectors plus raw reuse histograms for every interval."""

    #: Row-per-interval feature matrix (fractions; k-means input).
    features: np.ndarray
    #: Per-interval reuse histogram: column 0 cold, then log2 buckets,
    #: in SHARDS-sampled access counts (not rescaled).
    reuse_histogram: np.ndarray
    #: Quarter-log2-bucket histogram (column 0 cold, then
    #: :data:`COLD_BUCKETS` columns) restricted to *session-cold*
    #: accesses — those whose previous use lies before the interval's
    #: warm-up window, which a standalone replay of the interval sees as
    #: compulsory misses.  Their global distance distribution drives the
    #: cold-start correction (:func:`cold_start_hit_ratio`).
    cold_histogram: np.ndarray
    #: SHARDS-sampled accesses landing in each interval.
    sampled_counts: np.ndarray
    #: Total accesses in each interval (exact, not sampled).
    counts: np.ndarray
    #: The spatial sampling rate the fingerprints were computed at.
    rate: float
    #: Line size the reuse distances are expressed in.
    line_size: int
    #: Warm-up window the session-cold classification assumed.
    warmup: int

    @property
    def intervals(self) -> int:
        """Number of fingerprinted intervals."""
        return len(self.features)

    def to_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Split into the (meta, arrays) form a TraceCache stores."""
        meta = {
            "version": FINGERPRINT_VERSION,
            "rate": self.rate,
            "line_size": self.line_size,
            "warmup": self.warmup,
        }
        arrays = {
            "features": self.features,
            "reuse_histogram": self.reuse_histogram,
            "cold_histogram": self.cold_histogram,
            "sampled_counts": self.sampled_counts,
            "counts": self.counts,
        }
        return meta, arrays

    @classmethod
    def from_payload(cls, meta, arrays) -> "IntervalFingerprints":
        """Rebuild from a cached (meta, arrays) payload."""
        return cls(
            features=np.asarray(arrays["features"]),
            reuse_histogram=np.asarray(arrays["reuse_histogram"]),
            cold_histogram=np.asarray(arrays["cold_histogram"]),
            sampled_counts=np.asarray(arrays["sampled_counts"]),
            counts=np.asarray(arrays["counts"]),
            rate=float(meta["rate"]),
            line_size=int(meta["line_size"]),
            warmup=int(meta["warmup"]),
        )


def _distance_buckets(distances: np.ndarray, rate: float) -> np.ndarray:
    """Histogram column of each sampled access (0 = cold, then log2)."""
    columns = np.zeros(len(distances), dtype=np.int64)
    warm = distances != COLD
    scaled = distances[warm].astype(np.float64) / rate
    logs = np.floor(np.log2(np.maximum(scaled, 1.0))).astype(np.int64)
    columns[warm] = 1 + np.minimum(logs, DISTANCE_BUCKETS - 1)
    return columns


def _cold_buckets(distances: np.ndarray, rate: float) -> np.ndarray:
    """Quarter-log2 histogram column of each access (0 = cold)."""
    columns = np.zeros(len(distances), dtype=np.int64)
    warm = distances != COLD
    scaled = distances[warm].astype(np.float64) / rate
    logs = np.floor(
        COLD_BUCKETS_PER_OCTAVE * np.log2(np.maximum(scaled, 1.0))
    ).astype(np.int64)
    columns[warm] = 1 + np.minimum(logs, COLD_BUCKETS - 1)
    return columns


def fingerprint_intervals(
    chunk: TraceChunk,
    bounds: np.ndarray,
    cores: int,
    config: FingerprintConfig = FingerprintConfig(),
    warmup: int = 0,
) -> IntervalFingerprints:
    """Fingerprint every interval of a core-tagged access stream.

    ``bounds`` comes from :func:`repro.simpoint.intervals.interval_bounds`
    (fixed-size intervals, partial tail); ``warmup`` is the warm-up
    window the replay stage will use, which defines the session-cold
    classification behind :attr:`IntervalFingerprints.cold_histogram`.
    All heavy per-access work runs on the SHARDS sub-trace; only the
    line hash itself touches the full stream, so cost is ~O(N) with a
    tiny constant plus ~O(max_samples log max_samples) for the Olken
    pass.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    n = len(chunk)
    n_intervals = len(bounds) - 1
    interval = int(bounds[1] - bounds[0]) if n_intervals > 1 else max(n, 1)
    counts = np.diff(bounds)

    lines = chunk.lines(config.line_size)
    rate = 1.0 if n <= config.max_samples else max(
        config.min_rate, config.max_samples / n
    )
    if rate < 1.0:
        positions = np.flatnonzero(sampled_lines_mask(lines, rate))
    else:
        positions = np.arange(n, dtype=np.int64)
    sampled = TraceChunk(
        chunk.addresses[positions],
        chunk.kinds[positions],
        chunk.cores[positions],
        chunk.pcs[positions],
    )
    interval_of = np.minimum(positions // interval, n_intervals - 1)
    sampled_counts = np.bincount(interval_of, minlength=n_intervals).astype(
        np.int64
    )

    # Reuse-distance histogram: exact Olken over the sampled sub-trace,
    # rescaled to full-trace line scale by 1/rate (SHARDS estimator).
    distances = stack_distances(sampled, config.line_size)
    columns = _distance_buckets(distances, rate)
    width = 1 + DISTANCE_BUCKETS
    histogram = np.bincount(
        interval_of * width + columns, minlength=n_intervals * width
    ).reshape(n_intervals, width).astype(np.float64)

    # Windowed footprint: sampled accesses whose line was not referenced
    # earlier in the same interval (previous occurrence before the
    # interval start, or cold).
    previous = previous_occurrences(sampled.lines(config.line_size))
    previous_global = np.where(previous >= 0, positions[np.maximum(previous, 0)], -1)
    first_touch = previous_global < bounds[interval_of]
    footprint = np.bincount(
        interval_of[first_touch], minlength=n_intervals
    ).astype(np.float64)

    # Session-cold accesses: previous use falls before the warm-up
    # window, so a standalone replay of the interval starts them cold.
    # Their *global* distance distribution says which of them the exact
    # path would have hit — the cold-start correction's input.
    session_cold = previous_global < (bounds[interval_of] - warmup)
    cold_columns = _cold_buckets(distances, rate)
    cold_width = 1 + COLD_BUCKETS
    cold_histogram = np.bincount(
        interval_of[session_cold] * cold_width + cold_columns[session_cold],
        minlength=n_intervals * cold_width,
    ).reshape(n_intervals, cold_width).astype(np.float64)

    # Per-core mix and read fraction, from the same sub-trace.
    core_mix = np.bincount(
        interval_of * cores + np.minimum(sampled.cores.astype(np.int64), cores - 1),
        minlength=n_intervals * cores,
    ).reshape(n_intervals, cores).astype(np.float64)
    reads = np.bincount(
        interval_of[sampled.kinds == int(AccessKind.READ)], minlength=n_intervals
    ).astype(np.float64)

    denominator = np.maximum(sampled_counts, 1).astype(np.float64)[:, None]
    features = np.concatenate(
        [
            histogram / denominator,
            footprint[:, None] / denominator,
            core_mix / denominator,
            reads[:, None] / denominator,
        ],
        axis=1,
    )
    return IntervalFingerprints(
        features=features,
        reuse_histogram=histogram,
        cold_histogram=cold_histogram,
        sampled_counts=sampled_counts,
        counts=counts,
        rate=rate,
        line_size=config.line_size,
        warmup=warmup,
    )


def _associative_hit_curve(
    capacity_lines: int, associativity: int
) -> np.ndarray:
    """Hit probability of each cold-histogram bucket in a set-assoc cache.

    Smith's associativity model: an access whose LRU stack distance is
    ``d`` sees ``d`` distinct intervening lines, of which a
    Binomial(d, 1/sets) number lands in its own set; it hits iff fewer
    than ``associativity`` do.  This is what bends the fully-associative
    step function into the soft knee real caches show — near
    ``d ≈ capacity`` roughly half the sets have already overflowed, and
    cyclically-reused working sets just past capacity thrash instead of
    half-hitting.  Evaluated at each quarter-log2 bucket's geometric
    midpoint; returns ``1 + COLD_BUCKETS`` probabilities (column 0, the
    cold bucket, is always 0).
    """
    capacity = max(int(capacity_lines), 1)
    assoc = int(min(associativity, capacity))
    sets = max(capacity // assoc, 1)
    exponents = (np.arange(COLD_BUCKETS) + 0.5) / COLD_BUCKETS_PER_OCTAVE
    d = np.exp2(exponents)
    if sets == 1:
        curve = (d <= assoc - 1).astype(np.float64)
        return np.concatenate([[0.0], curve])
    # Binomial CDF P(X <= assoc-1), X ~ B(d, 1/sets), via log-space
    # terms (d reaches 2^33).
    log_p = -np.log(sets)
    log_q = np.log1p(-1.0 / sets)
    j = np.arange(assoc, dtype=np.float64)
    log_terms = (
        gammaln(d[:, None] + 1.0)
        - gammaln(j[None, :] + 1.0)
        - gammaln(d[:, None] - j[None, :] + 1.0)
        + j[None, :] * log_p
        + (d[:, None] - j[None, :]) * log_q
    )
    log_terms = np.where(j[None, :] <= d[:, None], log_terms, -np.inf)
    curve = np.exp(log_terms).sum(axis=1).clip(0.0, 1.0)
    return np.concatenate([[0.0], curve])


def cold_start_hit_ratio(
    fingerprints: IntervalFingerprints,
    capacity_lines: int,
    associativity: int,
) -> np.ndarray:
    """Per-interval fraction of accesses a standalone replay over-misses.

    A session-cold access (previous use before the interval's warm-up
    window) misses in a representative replay regardless of capacity;
    in the exact run it hits with the probability the associativity
    model assigns its global stack distance.  The expected count of
    such would-have-hit accesses over the interval's sampled accesses
    is the miss-ratio overestimate the representative carries — the
    recombiner subtracts it.
    """
    curve = _associative_hit_curve(capacity_lines, associativity)
    hits = fingerprints.cold_histogram @ curve
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = hits / fingerprints.sampled_counts
    return np.where(fingerprints.sampled_counts > 0, ratio, 0.0)


def cold_start_uncertainty(
    fingerprints: IntervalFingerprints,
    capacity_lines: int,
    associativity: int,
) -> np.ndarray:
    """Per-interval bound on the cold-start correction's own error.

    The hit curve is trustworthy at its extremes — far-below-capacity
    reuse hits, far-above-capacity reuse misses — but near the capacity
    knee the binomial model's uniform-set-mapping assumption can be off
    by the full ambiguous mass (skewed set occupancy, cyclic thrash).
    Bound the model error by the cold mass weighted by how ambiguous
    the curve is there (``min(p, 1-p)``), as a fraction of the
    interval's sampled accesses; the recombiner widens the error bars
    by it, so knee configurations are honestly bracketed instead of
    confidently wrong.
    """
    curve = _associative_hit_curve(capacity_lines, associativity)
    ambiguous = np.minimum(curve, 1.0 - curve)
    mass = fingerprints.cold_histogram @ ambiguous
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = mass / fingerprints.sampled_counts
    return np.where(fingerprints.sampled_counts > 0, ratio, 0.0)


def predicted_miss_ratio(
    fingerprints: IntervalFingerprints, capacity_lines: int
) -> np.ndarray:
    """Analytic per-interval miss-ratio estimate at ``capacity_lines``.

    From the reuse histograms alone: a fully-associative LRU cache of
    ``C`` lines misses cold accesses plus those with stack distance
    ≥ C; the bucket containing C contributes its log2-interpolated
    fraction.  Intervals with no sampled accesses yield NaN — callers
    substitute a global fallback.  This never replaces the emulator
    (associativity, banking, and sharing effects are its job); it only
    ranks intervals for the error-bar residuals.
    """
    histogram = fingerprints.reuse_histogram
    capacity = max(int(capacity_lines), 1)
    position = np.log2(capacity)
    bucket = min(int(position), DISTANCE_BUCKETS - 1)
    misses = histogram[:, 0].copy()
    misses += histogram[:, 2 + bucket :].sum(axis=1)
    misses += histogram[:, 1 + bucket] * max(0.0, 1.0 - (position - bucket))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = misses / fingerprints.sampled_counts
    return np.where(fingerprints.sampled_counts > 0, ratio, np.nan)
