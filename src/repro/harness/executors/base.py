"""What the two sweep backends share: point and event records, and
the shard fabric's configuration.

The supervisor's pool loop drives
:class:`~repro.harness.executors.local.LocalPoolExecutor` and the
fabric driver drives :class:`~repro.harness.executors.shard.
ShardExecutor`; each caller knows its backend's class.  Both take a
:class:`SubmittedPoint` per grid point and report back as
:class:`PointEvent` records, which is all the two drivers share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError

#: Executor selector values accepted by ``--executor``.
EXECUTOR_NAMES = ("pool", "shard")


@dataclass(frozen=True)
class SubmittedPoint:
    """One grid point, prepared for execution on any backend.

    ``key`` is the point's content key (task identity + canonicalized
    pickled item — see :func:`~repro.harness.supervisor.point_key`); it
    is what makes re-execution idempotent across workers and runs.
    ``fault``/``hang_seconds`` carry a planned harness fault for this
    attempt.
    """

    index: int
    task: Callable
    item: Any
    key: str | None = None
    fault: str | None = None
    hang_seconds: float = 0.0


@dataclass(frozen=True)
class PointEvent:
    """One thing that happened on a backend since the last poll.

    Kinds:

    * ``done`` — a point completed; ``value`` holds the result.
    * ``error`` — an attempt raised; ``error`` holds the exception.
    * ``crash`` — the worker running the point died; charged like an
      error (the point was plausibly the killer).
    * ``lost`` — a point's worker pool collapsed under it through no
      fault of its own; re-run without charging an attempt.
    * ``respawn`` — the backend replaced dead capacity on its own.

    The shard backend adds lease-level kinds: ``lease`` (a worker claimed
    a point), ``steal`` (the claim reclaimed an expired lease),
    ``failed`` (one recorded attempt raised; ``attempts`` tells the
    driver whether retries remain), ``quarantined`` (the point killed
    too many workers; ``value`` lists them), ``verified`` (a racing
    re-execution matched the recorded result byte-for-byte), and
    ``conflict`` (it did not — the sweep must fail).

    ``handle`` identifies the in-flight record the driver keyed the
    point under (the local pool uses the future itself, the shard
    backend the content key); events that concern no single point
    (``respawn``) carry ``handle=None``.
    """

    kind: str
    handle: Any = None
    value: Any = None
    error: BaseException | None = None
    wall_time_s: float | None = None
    #: The shard backend also reports which worker produced the event
    #: and which attempt it was; the local pool leaves these unset.
    worker: str | None = None
    attempts: int | None = None


@dataclass(frozen=True)
class FabricConfig:
    """How the ledger-backed shard fabric is shaped.

    The ledger file is the sweep's journal when one is open; otherwise
    the driver places a temporary one per map.

    Attributes:
        shards: target number of live workers; the driver respawns
            toward this count when workers die.
        lease_ttl: seconds a claim stays exclusive without a heartbeat;
            any worker may steal the point after expiry.
        heartbeat_every: heartbeat period (default ``lease_ttl / 3``).
        poll_interval: driver/worker ledger re-scan period.
        quarantine_after: a point whose lease expired under this many
            *distinct* workers is quarantined as poison instead of
            being stolen again.
        grace: drain grace period before SIGKILL.
        max_respawns: hard ceiling on worker respawns per map, so a
            fleet that dies instantly (a broken environment) fails
            loudly instead of respawning forever.
        observer: test/chaos hook, called as ``observer(backend,
            cycle)`` once per driver poll cycle.
    """

    shards: int = 2
    lease_ttl: float = 30.0
    heartbeat_every: float | None = None
    poll_interval: float = 0.05
    quarantine_after: int = 3
    grace: float = 5.0
    max_respawns: int = 64
    observer: Callable[[Any, int], None] | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.lease_ttl <= 0:
            raise ConfigurationError(
                f"lease-ttl must be positive, got {self.lease_ttl}"
            )
        if self.quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine-after must be >= 1, got {self.quarantine_after}"
            )

    @property
    def heartbeat_period(self) -> float:
        """Effective heartbeat period (a third of the TTL by default)."""
        return (
            self.heartbeat_every
            if self.heartbeat_every is not None
            else self.lease_ttl / 3.0
        )

