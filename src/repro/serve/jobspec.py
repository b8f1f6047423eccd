"""The canonical job-spec/job-result model every front door shares.

A :class:`JobSpec` is one simulation job — (workload, geometry, cores,
quantum, flags) — in a single canonical, content-keyed form.
``repro-cosim`` builds one from its argument namespace, the
``repro-serve`` daemon parses one out of each request body, and both
run it through the same replay engine, so a served job's result is
byte-identical to the same spec run from the command line
(:func:`result_digest` makes that checkable in one line).

Three content keys, one derivation chain:

* :meth:`JobSpec.content_key` — the *job* identity: every field that
  can change the result.  The server's dedup map and result store are
  keyed by it.
* :meth:`JobSpec.capture_key` — the *captured trace* identity: exactly
  the :func:`repro.harness.replay.log_cache_key` the trace cache uses,
  so "two jobs share a capture" and "the cache already holds this
  trace" are, by construction, the same question.
* :meth:`JobSpec.coalesce_key` — the *replay pass* identity: the
  capture key plus the per-pass knobs (lenient/inject/audit/sample).
  Jobs with equal coalesce keys can ride one single-pass multi-config
  replay; the batch planner groups by it.

This module also owns the canonicalization helpers the sweep journal
keys its records with (:func:`canonicalize`, :func:`point_content_key`,
:func:`raw_digest`), so server dedup, journal resume keys, and the
journal's result digests can never drift apart.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, fields as dataclass_fields
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import JobSpecError, ReproError
from repro.trace.cache import cache_key
from repro.units import format_size, parse_size

#: Bumped whenever a field is added or a default changes meaning; part
#: of every content key, so two builds can never silently share state
#: for specs they would run differently.
JOBSPEC_VERSION = 1

#: Boot-noise transactions the capture path always uses (the platform
#: default ``repro-cosim`` never exposes as a flag).
BOOT_NOISE_ACCESSES = 8192

_SOURCES = ("kernel", "synthetic")
_MODES = ("interactive", "batch")


# -- canonical content keys (shared with journal + ledger) -------------


class CanonicalSet(tuple):
    """Marker wrapper for a set canonicalized to an ordered tuple.

    A distinct type keeps a canonicalized set from colliding with a
    genuine tuple of the same members in the key space.
    """

    __slots__ = ()


def canonicalize(value: Any) -> Any:
    """Rebuild ``value`` with deterministic container ordering.

    Pickle serializes dicts and sets in iteration order, so two equal
    items built in different orders pickle to different bytes and get
    different content keys.  Dicts are rebuilt with entries sorted by
    their pickled keys (a total, content-stable order — ``repr`` ties
    or cross-type ``<`` comparisons are not), sets become sorted
    :class:`CanonicalSet` tuples, and lists/tuples/namedtuples recurse
    elementwise.  An object whose type defines ``content_identity()``
    is replaced by what that returns, so it can carry transport details
    (a spill path, a cache root) that must reach a worker but never a
    key.  Other items are returned structurally identical, so their
    keys — and existing journals holding them — are unchanged.
    """
    content_identity = getattr(type(value), "content_identity", None)
    if content_identity is not None:
        return content_identity(value)
    if isinstance(value, dict):
        pairs = [(key, canonicalize(item)) for key, item in value.items()]
        pairs.sort(key=lambda pair: pickle.dumps(pair[0], protocol=4))
        return dict(pairs)
    if isinstance(value, (set, frozenset)):
        members = sorted(
            (canonicalize(member) for member in value),
            key=lambda member: pickle.dumps(member, protocol=4),
        )
        return CanonicalSet(members)
    if isinstance(value, list):
        return [canonicalize(item) for item in value]
    if isinstance(value, tuple):
        items = tuple(canonicalize(item) for item in value)
        if type(value) is tuple:
            return items
        if hasattr(value, "_fields"):  # namedtuple: rebuild same type
            return type(value)(*items)
        return value  # unknown tuple subclass: leave untouched
    return value


def point_content_key(identity: str, item: Any) -> str:
    """Content key of one grid point: task identity + canonical item.

    The key the sweep journal and the server's per-point bookkeeping
    share — :func:`repro.harness.supervisor.point_key` delegates here,
    so existing journals keep their keys.
    """
    payload = pickle.dumps(canonicalize(item), protocol=4)
    return hashlib.sha256(
        identity.encode("utf-8") + b"\x1f" + payload
    ).hexdigest()


def raw_digest(raw: bytes) -> str:
    """SHA-256 hex digest of raw bytes — the platform's one hash spelling."""
    return hashlib.sha256(raw).hexdigest()


def pickle_digest(value: Any) -> str:
    """SHA-256 of ``value``'s protocol-4 pickle bytes.

    The byte-identity currency of the platform: the sweep journal
    stamps every ``done`` record with it, and the serving layer stamps
    every job result with it so "served equals CLI" is one string
    comparison.
    """
    return raw_digest(pickle.dumps(value, protocol=4))


def result_digest(results: Iterable[Any]) -> str:
    """Digest of an ordered result list (the job-result identity).

    Results built in one process share objects through pickle's memo;
    results that came back from workers, a journal or a ledger do not.
    Round-tripping each result on its own first makes every route
    digest the same bytes.  A single result needs no round trip.
    """
    results = list(results)
    if len(results) > 1:
        results = [pickle.loads(pickle.dumps(r, protocol=4)) for r in results]
    return pickle_digest(results)


def content_key(fields: Mapping[str, object]) -> str:
    """Content address of a JSON-serializable field mapping.

    Re-exported from the trace cache so every layer that needs a
    canonical-JSON SHA-256 (server dedup, fingerprint cache, capture
    keys) spells it the same way.
    """
    return cache_key(fields)


# -- the job spec ------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobSpecError(message)


def _as_int(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(f"{name} must be an integer, got {value!r}")
    return value


def _parse_cache(value: Any) -> tuple[int, ...]:
    """Cache sizes from any accepted form: "1MB,4MB", ints, or a list."""
    if isinstance(value, str):
        tokens = [token.strip() for token in value.split(",") if token.strip()]
        _require(bool(tokens), f"cache list {value!r} names no sizes")
        return tuple(parse_size(token) for token in tokens)
    if isinstance(value, int) and not isinstance(value, bool):
        return (value,)
    if isinstance(value, (list, tuple)):
        _require(bool(value), "cache list names no sizes")
        sizes = []
        for item in value:
            if isinstance(item, str):
                sizes.append(parse_size(item))
            else:
                sizes.append(_as_int("cache size", item))
        return tuple(sizes)
    raise JobSpecError(f"cache must be a size, a list, or a CSV string, got {value!r}")


def _parse_scale(value: Any) -> str:
    """Canonical footprint scale: the ``str(Fraction)`` the cache keys use."""
    try:
        fraction = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as error:
        raise JobSpecError(f"scale {value!r} is not a fraction: {error}") from error
    _require(fraction > 0, f"scale must be positive, got {value!r}")
    return str(fraction)


@dataclass(frozen=True)
class JobSpec:
    """One simulation job in canonical form.

    Field defaults mirror ``repro-cosim``'s flag defaults exactly, so a
    spec that names only a workload runs the same simulation the bare
    CLI invocation would.  Instances are validated on construction and
    immutable afterwards; every accepted spec maps 1:1 onto a CLI flag
    combination (:meth:`to_cli_argv`) and back
    (:meth:`from_cli_args`).
    """

    workload: str
    cores: int = 4
    cache: tuple[int, ...] = (4 * 1024 * 1024,)
    line: int = 64
    quantum: int = 4096
    source: str = "kernel"
    accesses: int = 65536
    scale: str = "1/256"
    repeats: int = 1
    sample: str | None = None
    inject: str | None = None
    lenient: bool = False
    audit: str | None = None

    def __post_init__(self) -> None:
        from repro.workloads.profiles import WORKLOAD_NAMES

        _require(
            self.workload in WORKLOAD_NAMES,
            f"unknown workload {self.workload!r}; choose from "
            f"{', '.join(WORKLOAD_NAMES)}",
        )
        object.__setattr__(self, "cache", _parse_cache(self.cache))
        object.__setattr__(self, "scale", _parse_scale(self.scale))
        _require(
            1 <= _as_int("cores", self.cores) <= 64,
            f"cores must be within 1-64, got {self.cores}",
        )
        _require(
            _as_int("quantum", self.quantum) >= 1,
            f"quantum must be positive, got {self.quantum}",
        )
        _require(
            self.source in _SOURCES,
            f"source must be one of {', '.join(_SOURCES)}, got {self.source!r}",
        )
        _require(
            _as_int("accesses", self.accesses) >= 1,
            f"accesses must be positive, got {self.accesses}",
        )
        _require(
            _as_int("repeats", self.repeats) >= 1,
            f"repeats must be >= 1, got {self.repeats}",
        )
        _as_int("line", self.line)
        # Geometry validation is the emulator's own: constructing the
        # Dragonhead configurations raises on anything outside the
        # hardware envelope (size bounds, powers of two, bank divisor).
        try:
            self.configs()
        except ReproError as error:
            raise JobSpecError(f"invalid geometry: {error}") from error
        if self.audit is not None:
            from repro.audit import AUDIT_MODES

            _require(
                self.audit in AUDIT_MODES,
                f"audit must be one of {', '.join(AUDIT_MODES)}, "
                f"got {self.audit!r}",
            )
        if self.inject is not None:
            _require(
                isinstance(self.inject, str) and bool(self.inject.strip()),
                f"inject must be a FAULTSPEC string, got {self.inject!r}",
            )
            try:
                self._fault_spec()
            except ReproError as error:
                raise JobSpecError(f"invalid inject spec: {error}") from error
        _require(isinstance(self.lenient, bool), "lenient must be a boolean")
        if self.sample is not None:
            _require(
                isinstance(self.sample, str) and bool(self.sample.strip()),
                f"sample must be an INTERVAL[,MAXK] string, got {self.sample!r}",
            )
            for conflict in ("inject", "lenient", "audit"):
                _require(
                    not getattr(self, conflict),
                    f"sample cannot be combined with {conflict}: the sampled "
                    "path replays representatives through the strict batched "
                    "pipeline only",
                )
            from repro.simpoint import parse_sample_spec

            try:
                parse_sample_spec(self.sample)
            except ReproError as error:
                raise JobSpecError(f"invalid sample spec: {error}") from error

    # -- JSON round-trip ----------------------------------------------

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Build a spec from a JSON object, rejecting unknown fields.

        Strictness is the admission contract: a typo'd field name must
        bounce with a 400, never silently run the default simulation.
        """
        if not isinstance(payload, Mapping):
            raise JobSpecError(f"job spec must be a JSON object, got {payload!r}")
        known = {field.name for field in dataclass_fields(cls)}
        data = dict(payload)
        version = data.pop("version", JOBSPEC_VERSION)
        if version != JOBSPEC_VERSION:
            raise JobSpecError(
                f"job spec version {version!r} is not the supported "
                f"{JOBSPEC_VERSION}"
            )
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobSpecError(
                f"unknown job spec field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        if "workload" not in data:
            raise JobSpecError("job spec must name a workload")
        return cls(**data)

    def to_json(self) -> dict[str, Any]:
        """The canonical JSON form: every field, normalized values."""
        return {
            "version": JOBSPEC_VERSION,
            "workload": self.workload,
            "cores": self.cores,
            "cache": list(self.cache),
            "line": self.line,
            "quantum": self.quantum,
            "source": self.source,
            "accesses": self.accesses,
            "scale": self.scale,
            "repeats": self.repeats,
            "sample": self.sample,
            "inject": self.inject,
            "lenient": self.lenient,
            "audit": self.audit,
        }

    # -- content keys -------------------------------------------------

    def content_key(self) -> str:
        """The job identity: every field that can change the result."""
        fields: dict[str, Any] = {"kind": "jobspec"}
        fields.update(self.to_json())
        return content_key(fields)

    def capture_key_extra(self) -> dict[str, Any]:
        """The ``key_extra`` the CLI stamps captures with — byte-equal.

        Kept field-for-field identical to what ``repro-cosim`` always
        wrote so every trace cached before the serving layer existed
        stays warm.
        """
        if self.source == "kernel":
            extra: dict[str, Any] = {"source": "kernel"}
        else:
            extra = {
                "source": "synthetic",
                "accesses": self.accesses,
                "scale": self.scale,
            }
        if self.repeats != 1:
            extra["repeats"] = self.repeats
        return extra

    def capture_key(self) -> str:
        """The captured trace's content address — the trace cache's key.

        Jobs sharing this key share one generation pass, and a warm
        cache answers it without re-capture; the server's dedup and the
        cache's addressing agree by construction.
        """
        from repro.harness.replay import log_cache_key

        return log_cache_key(
            self.workload,
            self.cores,
            self.quantum,
            BOOT_NOISE_ACCESSES,
            self.capture_key_extra(),
        )

    def coalesce_key(self) -> str:
        """The replay-pass identity: capture plus the per-pass knobs.

        Jobs with equal coalesce keys can ride one single-pass
        multi-config replay (their Dragonhead configurations are the
        only thing that differs); the batch planner groups by it.
        """
        return content_key(
            {
                "kind": "replay-pass",
                "capture": self.capture_key(),
                "lenient": self.lenient,
                "inject": self.inject,
                "audit": self.audit,
                "sample": self.sample,
            }
        )

    # -- run helpers ---------------------------------------------------

    def configs(self) -> list:
        """The Dragonhead configurations this job sweeps."""
        from repro.cache.emulator import DragonheadConfig

        return [
            DragonheadConfig(cache_size=size, line_size=self.line)
            for size in self.cache
        ]

    def build_guest(self):
        """The guest workload this job captures (kernel or synthetic)."""
        from repro.workloads.registry import get_workload

        workload = get_workload(self.workload)
        if self.source == "kernel":
            return workload.kernel_guest(repeats=self.repeats)
        return workload.synthetic_guest(
            accesses_per_thread=self.accesses,
            scale=float(Fraction(self.scale)),
            repeats=self.repeats,
        )

    def _fault_spec(self):
        from repro.faults.spec import parse_fault_spec

        return parse_fault_spec(self.inject)

    def run(self, trace_cache=None, jobs: int | None = None) -> list:
        """Execute this spec through the replay engine; ordered results.

        The path every front door takes: one capture (or cache load),
        one replay per configuration — so ``result_digest(spec.run(...))``
        is byte-equal no matter which front door issued the job.
        Sampled specs route through the sampled sweep and return
        ``SampledCoSimResult`` objects.
        """
        return _run_pass(self, self.configs(), trace_cache, jobs)

    # -- CLI mapping ---------------------------------------------------

    @classmethod
    def from_cli_args(cls, args) -> "JobSpec":
        """The spec one ``repro-cosim`` argument namespace describes."""
        return cls(
            workload=args.workload,
            cores=args.cores,
            cache=args.cache,
            line=args.line,
            quantum=args.quantum,
            source=args.source,
            accesses=args.accesses,
            scale=str(args.scale),
            repeats=args.repeats,
            sample=args.sample,
            inject=args.inject,
            lenient=args.lenient,
            audit=args.audit,
        )

    def to_cli_argv(self) -> list[str]:
        """``repro-cosim`` flags that reproduce this spec exactly."""
        argv = [
            "--workload", self.workload,
            "--cores", str(self.cores),
            "--cache", ",".join(format_size(size) for size in self.cache),
            "--line", str(self.line),
            "--quantum", str(self.quantum),
            "--source", self.source,
            "--accesses", str(self.accesses),
            "--scale", self.scale,
            "--repeats", str(self.repeats),
        ]
        if self.sample is not None:
            argv += ["--sample", self.sample]
        if self.inject is not None:
            argv += ["--inject", self.inject]
        if self.lenient:
            argv += ["--lenient"]
        if self.audit is not None:
            argv += ["--audit", self.audit]
        return argv


def _run_pass(spec: JobSpec, configs: list, trace_cache, jobs: int | None) -> list:
    """One replay pass of ``spec``'s capture over ``configs``.

    Sampled specs capture (or load) the log once and sample the sweep;
    exact specs replay it once per configuration.
    """
    if spec.sample is not None:
        from repro.harness.replay import load_or_capture
        from repro.simpoint import parse_sample_spec, sampled_sweep

        log, _ = load_or_capture(
            spec.build_guest(),
            spec.cores,
            quantum=spec.quantum,
            trace_cache=trace_cache,
            key_extra=spec.capture_key_extra(),
        )
        return sampled_sweep(
            log,
            configs,
            parse_sample_spec(spec.sample),
            trace_cache=trace_cache,
            log_key=spec.capture_key() if trace_cache is not None else None,
        )
    from repro.harness.replay import replay_sweep

    return replay_sweep(
        spec.build_guest(),
        spec.cores,
        configs,
        quantum=spec.quantum,
        jobs=jobs,
        trace_cache=trace_cache,
        key_extra=spec.capture_key_extra(),
        spec=spec._fault_spec(),
        lenient=spec.lenient,
        audit=spec.audit,
    )


def run_batch(
    specs: Sequence[JobSpec], trace_cache=None, jobs: int | None = None
) -> list[list]:
    """Run coalesced specs through ONE replay pass; per-spec results.

    Every spec must share a coalesce key (same capture, same per-pass
    knobs) — only their Dragonhead geometries differ.  The union of the
    geometries replays over the single captured trace, and each spec's
    result list is sliced back out in its own configuration order, so
    ``result_digest`` of a slice is byte-equal to the digest of the same
    spec run alone: riding a batch is invisible in the result.
    """
    if not specs:
        return []
    lead = specs[0]
    if len(specs) == 1:
        return [lead.run(trace_cache=trace_cache, jobs=jobs)]
    passes = {spec.coalesce_key() for spec in specs}
    if len(passes) != 1:
        raise JobSpecError(
            f"batch mixes {len(passes)} replay passes; the planner must "
            "group by coalesce key"
        )
    union: list = []
    position: dict[tuple[int, int], int] = {}
    for spec in specs:
        for config in spec.configs():
            slot = (config.cache_size, config.line_size)
            if slot not in position:
                position[slot] = len(union)
                union.append(config)

    pooled = _run_pass(lead, union, trace_cache, jobs)
    return [
        [
            pooled[position[(config.cache_size, config.line_size)]]
            for config in spec.configs()
        ]
        for spec in specs
    ]


def summarize_results(spec: JobSpec, results: Sequence[Any]) -> dict[str, Any]:
    """The job-result payload both the server and the CLI can emit.

    One entry per configuration (index-aligned with ``spec.cache``)
    plus the result digest — the canonical, JSON-safe rendering of a
    job's outcome.  Sampled results carry their error bars; exact
    results carry the full counter set.
    """
    sampled = spec.sample is not None
    configs = []
    for size, result in zip(spec.cache, results):
        entry: dict[str, Any] = {
            "cache_size": size,
            "line_size": spec.line,
        }
        if sampled:
            entry.update(
                mpki=result.mpki.value,
                mpki_error=result.mpki.error,
                misses=result.misses,
                miss_ratio=result.miss_ratio,
            )
        else:
            entry.update(
                mpki=result.mpki,
                misses=result.llc_stats.misses,
                miss_ratio=result.llc_stats.miss_ratio,
                accesses=result.accesses,
                instructions=result.instructions,
                filtered=result.filtered,
                windows=len(result.samples),
                degraded=result.degraded,
            )
        configs.append(entry)
    return {
        "workload": spec.workload,
        "cores": spec.cores,
        "sampled": sampled,
        "digest": result_digest(results),
        "configs": configs,
    }
