"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError` so
callers can catch package failures with a single ``except`` clause while
still distinguishing configuration mistakes from protocol violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An object was constructed with parameters outside its supported range.

    Mirrors the hardware limits of the modelled platform: for example the
    Dragonhead emulator only supports cache sizes from 1 MB to 256 MB and
    line sizes from 64 B to 4096 B, so configuring it outside that envelope
    raises this error rather than silently emulating unsupported hardware.
    """


class ProtocolError(ReproError):
    """A front-side-bus message stream violated the co-simulation protocol.

    Raised, for example, when a ``STOP_EMULATION`` message arrives while no
    emulation window is open, or when a message transaction carries an
    opcode outside the defined set.
    """


class RecoverableProtocolError(ProtocolError):
    """A protocol anomaly the lenient address filter resynchronized over.

    The real platform's channel is lossy — Dragonhead passively snoops a
    live front-side bus, so a message transaction can be dropped or
    delayed in flight.  In lenient mode the address filter does not
    raise on such anomalies; it records them as degradation and keeps
    emulating.  This class exists so callers that *want* the anomaly as
    an exception (strict mode, diagnostics) can still distinguish a
    survivable de-synchronization from a hard protocol violation.
    """


class FaultInjectionError(ReproError):
    """A fault-injection plan was malformed or deliberately fired.

    Raised when a ``--inject`` FAULTSPEC cannot be parsed, and by the
    harness-level fault channels (worker crash/hang) when a plan tells a
    sweep worker to fail — the software analog of a host CPU seizing
    mid-run while the FPGAs keep snooping.
    """


class SweepPointError(ReproError):
    """A sweep grid point failed; carries the offending item and cause.

    A bare worker exception says nothing about *which* (workload ×
    geometry) point died, which makes a 100-point sweep failure opaque.
    The supervisor and ``parallel_map`` wrap worker errors in this class
    so the failing point travels with the traceback.
    """

    def __init__(self, point: object, cause: BaseException, attempts: int = 1) -> None:
        self.point = point
        self.cause = cause
        self.attempts = attempts
        suffix = f" after {attempts} attempts" if attempts > 1 else ""
        super().__init__(
            f"sweep point {point!r} failed{suffix}: {type(cause).__name__}: {cause}"
        )


class SweepInterrupted(ReproError):
    """A supervised sweep was interrupted (SIGINT) before completion.

    Carries the partial results so the caller can print a drain report;
    completed points are already journaled and a ``--resume`` run will
    skip them.
    """

    def __init__(self, completed: int, total: int) -> None:
        self.completed = completed
        self.total = total
        super().__init__(f"sweep interrupted: {completed}/{total} points completed")


class DeadlineExpired(SweepInterrupted):
    """A run-level ``--deadline`` expired before the sweep completed.

    A subclass of :class:`SweepInterrupted` because the semantics are
    identical to SIGINT by design: in-flight work is cancelled the same
    way, completed points are already journaled, and a
    ``--resume`` run finishes the sweep byte-identically.  The distinct
    type exists so CLIs can exit 124 (the ``timeout(1)`` convention)
    instead of 130.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(completed, total)
        # Overwrite the SweepInterrupted message with the deadline one.
        self.args = (
            f"deadline expired: {completed}/{total} points completed",
        )


class AuditError(ReproError):
    """A completed run failed its end-of-run consistency audit.

    Carries the full :class:`~repro.audit.report.AuditReport` so the
    caller can see every violated invariant, not just the first.  Only
    raised in strict mode; lenient runs convert the violations into
    degradation records instead.
    """

    def __init__(self, report) -> None:
        self.report = report
        names = ", ".join(check.name for check in report.violations)
        super().__init__(
            f"run failed {len(report.violations)} audit check(s): {names}"
        )

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the message) into
        # ``__init__``, which expects a report — rebuild from the report
        # instead so the error survives the worker→parent hop intact.
        return (AuditError, (self.report,))


class TraceError(ReproError):
    """A memory trace was malformed or streams could not be combined."""


class TelemetryError(ReproError):
    """The telemetry subsystem was misused or misconfigured.

    Raised when a metric name is re-registered under a different type,
    a counter is decremented, or a sink file cannot be written.  Never
    raised from the disabled path — with telemetry off every telemetry
    entry point is a no-op by construction.
    """


class CalibrationError(ReproError):
    """A workload memory model could not satisfy its calibration targets."""


class SamplingError(ReproError):
    """A sampled-simulation request was malformed or cannot be satisfied.

    Raised by :mod:`repro.simpoint` for an unparseable ``--sample``
    spec, a non-positive interval, or a sampling request that conflicts
    with per-message semantics (fault injection, lenient resync) — the
    sampled path replays representatives through the batched strict
    pipeline only.
    """


class JobSpecError(ConfigurationError):
    """A job specification was malformed or outside the platform envelope.

    Raised by :mod:`repro.serve.jobspec` for unknown fields, values of
    the wrong type, geometry outside the Dragonhead envelope, or option
    combinations the run paths reject (for example ``sample`` together
    with ``inject``).  A :class:`ConfigurationError` subclass so the
    serving layer can map it to a 400 response while library callers
    keep catching configuration mistakes with one clause.
    """


class ServeError(ReproError):
    """The job server could not admit, schedule, or execute a request.

    Carries an HTTP-ish status so the daemon can answer clients
    precisely: 429 for admission-queue backpressure, 503 while
    draining, 404 for unknown job ids.
    """

    def __init__(self, message: str, status: int = 500) -> None:
        self.status = status
        super().__init__(message)
