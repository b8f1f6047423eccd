"""The sampled co-simulation engine: fingerprint, cluster, replay, recombine.

:func:`sampled_sweep` is the sampled counterpart of
:func:`repro.harness.replay.replay_map`: one captured
:class:`~repro.harness.replay.ReplayLog`, N cache configurations.  The
fingerprint and clustering passes run once (telemetry spans
``sample.fingerprint`` / ``sample.cluster``); each configuration then
replays only the cluster representatives through
:meth:`~repro.cache.emulator.DragonheadEmulator.emulate_stream`
(``sample.replay``), each on a fresh emulator warmed with the accesses
immediately preceding it; the recombiner then subtracts an analytic
cold-start correction — the reuse a standalone replay cannot see but
the exact run would have hit (:func:`~repro.simpoint.fingerprint.
cold_start_hit_ratio`).

Recombination weights each representative's measured miss ratio by its
cluster's access count:

    est_misses = Σ_c  accesses(cluster c) × miss_ratio(representative c)

MPKI and miss ratio derive from that with the log's *exact* instruction
and access totals.  The error bar combines the per-interval analytic
miss-ratio spread within each cluster (from the reuse-histogram
predictor, calibrated against the representative's measured ratio) with
a fixed relative floor:

    err_misses = sqrt(Σ_c Σ_{i∈c} (accesses_i · (p_i − p_rep_c) · κ_c)²)
                 + floor × est_misses

Degenerate sampling — one interval covering the whole trace — takes
:func:`~repro.harness.replay.replay` verbatim, so it is bit-identical
to the exact path by construction (no fingerprinting, no clustering,
zero error bars).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audit import AUDIT_OFF
from repro.cache.emulator import DragonheadConfig, DragonheadEmulator
from repro.cache.stats import CacheStats
from repro.core.cosim import CoSimResult, finish_run
from repro.errors import SamplingError
from repro.harness.replay import ReplayLog, replay
from repro.simpoint.cluster import Clustering, cluster_intervals
from repro.simpoint.fingerprint import (
    FINGERPRINT_VERSION,
    FingerprintConfig,
    IntervalFingerprints,
    cold_start_hit_ratio,
    cold_start_uncertainty,
    fingerprint_intervals,
    predicted_miss_ratio,
)
from repro.simpoint.intervals import (
    interval_bounds,
    interval_instructions,
    slice_progress,
)
from repro.telemetry import runtime as telemetry
from repro.trace.cache import TraceCache, cache_key
from repro.trace.record import AccessKind

#: Default warm-up accesses replayed (unmeasured) before each
#: representative interval; capped at the interval size and at the
#: stream prefix available before the representative.
DEFAULT_WARMUP = 8192

#: Relative error floor added to every recombined estimate: sampling
#: bias the per-interval residuals cannot see (cold-start remnants,
#: associativity and banking effects the analytic predictor ignores).
ERROR_FLOOR = 0.03

#: Calibration clip for the analytic-predictor scale factor.
_CALIBRATION_CLIP = (0.25, 4.0)

_EMPTY_PROGRESS = np.empty((0, 3), dtype=np.int64)


@dataclass(frozen=True)
class SampleSpec:
    """A parsed ``--sample`` request."""

    #: Accesses per interval (the SimPoint interval size).
    interval: int
    #: Upper bound on the cluster count (k-means tries 1..max_k).
    max_k: int = 8
    #: Warm-up accesses before each representative; None → the default
    #: (:data:`DEFAULT_WARMUP`, capped at the interval size).
    warmup: int | None = None
    #: k-means seed (fingerprinting itself is deterministic).
    seed: int = 0
    #: Fingerprint knobs (line size, SHARDS sample budget).
    fingerprint: FingerprintConfig = FingerprintConfig()

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise SamplingError(f"interval must be positive, got {self.interval}")
        if self.max_k <= 0:
            raise SamplingError(f"max_k must be positive, got {self.max_k}")

    def resolved_warmup(self) -> int:
        """The effective warm-up length for this spec."""
        if self.warmup is not None:
            return max(0, self.warmup)
        return min(self.interval, DEFAULT_WARMUP)


def parse_sample_spec(text: str) -> SampleSpec:
    """Parse the CLI syntax ``INTERVAL[,MAXK]`` into a :class:`SampleSpec`.

    ``INTERVAL`` accepts a plain access count or a ``k``/``m`` suffix
    (×1024 / ×1024²): ``--sample 64k,6`` means 65536-access intervals
    with at most six clusters.
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts or len(parts) > 2:
        raise SamplingError(
            f"--sample expects INTERVAL[,MAXK], got {text!r}"
        )
    raw = parts[0].lower()
    multiplier = 1
    if raw.endswith("k"):
        raw, multiplier = raw[:-1], 1024
    elif raw.endswith("m"):
        raw, multiplier = raw[:-1], 1024 * 1024
    try:
        interval = int(raw) * multiplier
    except ValueError as error:
        raise SamplingError(f"bad --sample interval {parts[0]!r}") from error
    max_k = 8
    if len(parts) == 2:
        try:
            max_k = int(parts[1])
        except ValueError as error:
            raise SamplingError(f"bad --sample max_k {parts[1]!r}") from error
    return SampleSpec(interval=interval, max_k=max_k)


@dataclass(frozen=True)
class MetricEstimate:
    """A recombined metric with its one-sided error bar."""

    value: float
    error: float

    def brackets(self, exact: float) -> bool:
        """Whether ``exact`` lies within ``value ± error``."""
        return abs(exact - self.value) <= self.error

    def __format__(self, spec: str) -> str:
        return f"{format(self.value, spec)}±{format(self.error, spec)}"


@dataclass(frozen=True)
class SampleCoverage:
    """What the sampled run actually simulated, for the record."""

    intervals: int
    interval_size: int
    clusters: int
    #: Representative interval index per cluster (cluster-id order).
    representatives: tuple[int, ...]
    #: Cluster id of every interval.
    labels: tuple[int, ...]
    #: Accesses carried by each cluster (the recombination weights).
    cluster_accesses: tuple[int, ...]
    #: Measured accesses (representative intervals only).
    simulated_accesses: int
    #: Unmeasured warm-up accesses replayed before representatives.
    warmup_accesses: int
    total_accesses: int
    #: SHARDS spatial sampling rate of the fingerprint pass.
    fingerprint_rate: float
    #: Always False: where the fingerprints came from is not part of
    #: the result (the ``trace cache:`` line's ``hits=`` reports it).
    #: The field stays because removing it would change the pickle, and
    #: so the digest, of every sampled result.
    fingerprint_cached: bool = False

    @property
    def simulated_fraction(self) -> float:
        """Fraction of the stream that went through the emulator."""
        if not self.total_accesses:
            return 0.0
        return (self.simulated_accesses + self.warmup_accesses) / self.total_accesses


@dataclass(frozen=True)
class SampledCoSimResult:
    """Recombined outcome of one sampled co-simulation.

    Exact stream-level facts (``instructions``, ``accesses``,
    ``filtered``, ``reads``/``writes``) come from the captured log;
    cache metrics are estimates with error bars.  ``sampled`` is always
    True — reports key on it so sampled and exact numbers are never
    silently mixed.
    """

    workload: str
    cores: int
    config: DragonheadConfig
    coverage: SampleCoverage
    instructions: int
    accesses: int
    filtered: int
    reads: int
    writes: int
    misses: MetricEstimate
    mpki: MetricEstimate
    miss_ratio: MetricEstimate
    #: Per-representative exact results (cluster-id order); the
    #: degenerate single-interval run holds exactly one, equal to the
    #: exact path's CoSimResult field for field.
    representative_results: tuple[CoSimResult, ...]
    sampled: bool = True

    @property
    def llc_stats(self) -> CacheStats:
        """Merged counters of the representative replays (context only)."""
        total = CacheStats()
        for result in self.representative_results:
            total = total.merge(result.llc_stats)
        return total


def _fingerprint_key(log_key: str, spec: SampleSpec) -> str:
    """Content address of a log's fingerprints under one spec."""
    return cache_key(
        {
            "kind": "simpoint-fingerprint",
            "log": log_key,
            "version": FINGERPRINT_VERSION,
            "interval": spec.interval,
            "line_size": spec.fingerprint.line_size,
            "max_samples": spec.fingerprint.max_samples,
            "min_rate": spec.fingerprint.min_rate,
            "warmup": spec.resolved_warmup(),
        }
    )


def _load_or_fingerprint(
    log: ReplayLog,
    bounds: np.ndarray,
    spec: SampleSpec,
    trace_cache: TraceCache | None,
    log_key: str | None,
) -> IntervalFingerprints:
    """Fingerprint the log, via the trace cache when one is available.

    Fingerprints are content-addressed by the *log's* cache key plus the
    fingerprint parameters, so re-sampling a cached workload skips the
    fingerprint pass entirely.
    """
    key = None
    if trace_cache is not None and log_key is not None:
        key = _fingerprint_key(log_key, spec)
        payload = trace_cache.load(key)
        if payload is not None:
            return IntervalFingerprints.from_payload(*payload)
    fingerprints = fingerprint_intervals(
        log.to_chunk(), bounds, log.cores, spec.fingerprint,
        warmup=spec.resolved_warmup(),
    )
    if key is not None:
        trace_cache.store(key, *fingerprints.to_payload())
    return fingerprints


def _replay_representatives(
    log: ReplayLog,
    config: DragonheadConfig,
    spec: SampleSpec,
    bounds: np.ndarray,
    clustering: Clustering,
    chunk,
    table: np.ndarray,
    per_interval_instructions: np.ndarray,
) -> tuple[dict[int, CoSimResult], int, int]:
    """Measure every representative interval standalone.

    Each representative replays on a *fresh* emulator, warmed with the
    accesses immediately preceding it (unmeasured, via
    :meth:`~DragonheadEmulator.reset_statistics`).  Standalone replay is
    deliberate: the recombiner's cold-start correction models exactly
    the reuse a fresh cache cannot see, so carrying state between
    representatives would double-count those hits.  Returns the per-
    representative results plus (measured, warm-up) access totals.
    """
    warmup = spec.resolved_warmup()
    results: dict[int, CoSimResult] = {}
    measured = 0
    warmed = 0
    for rep in sorted(set(clustering.representatives)):
        emulator = DragonheadEmulator(config)
        lo = int(bounds[rep])
        hi = int(bounds[rep + 1])
        w = min(warmup, lo)
        if w > 0:
            emulator.emulate_stream(chunk[lo - w : lo], _EMPTY_PROGRESS)
            warmed += w
            emulator.reset_statistics()
        emulator.emulate_stream(chunk[lo:hi], slice_progress(table, lo, hi))
        measured += hi - lo
        # Sampled specs refuse --audit, and the cycle total feeds only
        # the audit.
        results[rep] = finish_run(
            emulator,
            None,
            workload=log.workload,
            cores=log.cores,
            instructions=int(per_interval_instructions[rep]),
            cycles=0,
            audit_mode=AUDIT_OFF,
        )
    return results, measured, warmed


def _recombine(
    log: ReplayLog,
    config: DragonheadConfig,
    clustering: Clustering,
    fingerprints: IntervalFingerprints,
    rep_results: dict[int, CoSimResult],
) -> tuple[MetricEstimate, MetricEstimate, MetricEstimate]:
    """Weight representative miss ratios into whole-trace estimates."""
    counts = fingerprints.counts.astype(np.float64)
    labels = clustering.labels
    capacity_lines = config.cache_size // fingerprints.line_size
    # Cold-start correction: subtract the estimated fraction of each
    # representative's misses that only exist because the replay could
    # not see reuse from before its warm-up window.
    correction = cold_start_hit_ratio(
        fingerprints, capacity_lines, config.associativity
    )
    rep_ratio = np.empty(clustering.k, dtype=np.float64)
    for j, rep in enumerate(clustering.representatives):
        stats = rep_results[rep].llc_stats
        measured = stats.misses / stats.accesses if stats.accesses else 0.0
        rep_ratio[j] = max(0.0, measured - float(correction[rep]))
    estimated_misses = float((counts * rep_ratio[labels]).sum())

    # Residual spread: the analytic predictor's per-interval miss ratio,
    # calibrated per cluster against the representative's measured one.
    predicted = predicted_miss_ratio(fingerprints, capacity_lines)
    finite = np.isfinite(predicted)
    fallback = (
        float((predicted[finite] * counts[finite]).sum() / counts[finite].sum())
        if finite.any()
        else 0.0
    )
    predicted = np.where(finite, predicted, fallback)
    variance = 0.0
    for j, rep in enumerate(clustering.representatives):
        members = labels == j
        p_rep = float(predicted[rep])
        if p_rep > 1e-9:
            scale = float(np.clip(rep_ratio[j] / p_rep, *_CALIBRATION_CLIP))
        else:
            scale = 1.0
        residuals = counts[members] * (predicted[members] - p_rep) * scale
        variance += float((residuals**2).sum())
    # Cold-start model error is systematic, not sampling noise: add it
    # linearly, weighted by each cluster's access mass.
    uncertainty = cold_start_uncertainty(
        fingerprints, capacity_lines, config.associativity
    )
    correction_error = float(
        sum(
            counts[labels == j].sum() * uncertainty[rep]
            for j, rep in enumerate(clustering.representatives)
        )
    )
    error_misses = (
        float(np.sqrt(variance))
        + correction_error
        + ERROR_FLOOR * estimated_misses
    )

    instructions = max(log.instructions, 1)
    accesses = max(log.accesses, 1)
    misses = MetricEstimate(estimated_misses, error_misses)
    mpki = MetricEstimate(
        1000.0 * estimated_misses / instructions, 1000.0 * error_misses / instructions
    )
    miss_ratio = MetricEstimate(
        estimated_misses / accesses, error_misses / accesses
    )
    return misses, mpki, miss_ratio


def _degenerate_result(
    log: ReplayLog, config: DragonheadConfig
) -> SampledCoSimResult:
    """Single-interval sampling: the exact path, wrapped with zero bars."""
    exact = replay(log, config)
    stats = exact.llc_stats
    ratio = stats.misses / stats.accesses if stats.accesses else 0.0
    coverage = SampleCoverage(
        intervals=1,
        interval_size=log.accesses,
        clusters=1,
        representatives=(0,),
        labels=(0,),
        cluster_accesses=(log.accesses,),
        simulated_accesses=log.accesses,
        warmup_accesses=0,
        total_accesses=log.accesses,
        fingerprint_rate=1.0,
    )
    return SampledCoSimResult(
        workload=log.workload,
        cores=log.cores,
        config=config,
        coverage=coverage,
        instructions=log.instructions,
        accesses=log.accesses,
        filtered=log.filtered,
        reads=int(np.count_nonzero(log.kinds == int(AccessKind.READ))),
        writes=int(np.count_nonzero(log.kinds != int(AccessKind.READ))),
        misses=MetricEstimate(float(stats.misses), 0.0),
        mpki=MetricEstimate(exact.mpki, 0.0),
        miss_ratio=MetricEstimate(ratio, 0.0),
        representative_results=(exact,),
    )


def sampled_sweep(
    log: ReplayLog,
    configs,
    spec: SampleSpec,
    trace_cache: TraceCache | None = None,
    log_key: str | None = None,
) -> list[SampledCoSimResult]:
    """Sampled co-simulation of one log across N cache configurations.

    Fingerprinting and clustering run once and are shared by every
    configuration; per configuration only the cluster representatives
    replay.  ``trace_cache`` + ``log_key`` (the log's own cache key)
    enable fingerprint caching.  Results are index-aligned with
    ``configs``.
    """
    configs = list(configs)
    bounds = interval_bounds(log.accesses, spec.interval)
    n_intervals = len(bounds) - 1
    telemetry.counter("repro_sampled_intervals_total").inc(n_intervals)
    if n_intervals == 1:
        return [_degenerate_result(log, config) for config in configs]

    with telemetry.span("sample.fingerprint"):
        fingerprints = _load_or_fingerprint(
            log, bounds, spec, trace_cache, log_key
        )
    with telemetry.span("sample.cluster"):
        clustering = cluster_intervals(
            fingerprints.features, max_k=spec.max_k, seed=spec.seed
        )
    telemetry.counter("repro_sampled_representatives_total").inc(
        clustering.k * len(configs)
    )
    chunk = log.to_chunk()
    table = log.progress_table()
    per_interval = interval_instructions(table, bounds, log.instructions)
    cluster_accesses = tuple(
        int(fingerprints.counts[clustering.labels == j].sum())
        for j in range(clustering.k)
    )
    reads = int(np.count_nonzero(log.kinds == int(AccessKind.READ)))

    results: list[SampledCoSimResult] = []
    for config in configs:
        with telemetry.span("sample.replay"):
            rep_results, measured, warmed = _replay_representatives(
                log, config, spec, bounds, clustering, chunk, table, per_interval
            )
        misses, mpki, miss_ratio = _recombine(
            log, config, clustering, fingerprints, rep_results
        )
        coverage = SampleCoverage(
            intervals=n_intervals,
            interval_size=spec.interval,
            clusters=clustering.k,
            representatives=clustering.representatives,
            labels=tuple(int(label) for label in clustering.labels),
            cluster_accesses=cluster_accesses,
            simulated_accesses=measured,
            warmup_accesses=warmed,
            total_accesses=log.accesses,
            fingerprint_rate=fingerprints.rate,
        )
        results.append(
            SampledCoSimResult(
                workload=log.workload,
                cores=log.cores,
                config=config,
                coverage=coverage,
                instructions=log.instructions,
                accesses=log.accesses,
                filtered=log.filtered,
                reads=reads,
                writes=log.accesses - reads,
                misses=misses,
                mpki=mpki,
                miss_ratio=miss_ratio,
                representative_results=tuple(
                    rep_results[rep] for rep in clustering.representatives
                ),
            )
        )
    return results
