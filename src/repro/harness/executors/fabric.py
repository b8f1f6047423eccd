"""The fabric driver: a supervised map over the shard fleet.

:func:`run_fabric` is the shard backend's counterpart of the
supervisor's pool loop.  The division of labour is deliberately
different from the pool's: workers own execution, retries-with-backoff
(recorded as ``failed`` records), lease renewal, stealing, and
quarantine decisions — everything that must survive the driver dying.
The driver owns what only the parent can do: placing the manifest and
config, folding ledger records into the in-order results list,
respawning dead worker processes toward the target shard count,
exporting per-shard telemetry, and raising
:class:`~repro.errors.SweepPointError` for a point whose terminal
record is a failure or a quarantine.

The fabric enforces no per-point wall-clock budget.  A worker renews
its lease from a heartbeat thread for as long as the point runs, so a
point that hangs inside a live worker keeps its lease.  Only a worker
that stops heartbeating — killed, or stalled before the point starts —
loses the point, which another worker steals after ``lease_ttl``
seconds.  :func:`~repro.harness.supervisor.supervise` therefore
refuses :attr:`SupervisorPolicy.timeout` together with a fabric.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable

from repro.errors import QuarantinedPointError, SweepInterrupted, SweepPointError
from repro.harness.executors.base import FabricConfig, SubmittedPoint
from repro.harness.executors.ledger import ensure_no_conflicts
from repro.harness.executors.shard import ShardExecutor
from repro.telemetry import runtime as telemetry


def _policy_config(context, config: FabricConfig) -> dict:
    """The ``config`` record workers obey, rendered from the policy."""
    policy = context.policy
    row = {
        "lease_ttl": config.lease_ttl,
        "heartbeat_every": config.heartbeat_period,
        "poll_interval": config.poll_interval,
        "retries": policy.retries,
        "backoff_base": policy.backoff_base,
        "backoff_cap": policy.backoff_cap,
        "quarantine_after": config.quarantine_after,
    }
    if context.fault_spec is not None:
        row["inject"] = context.fault_spec.describe()
    return row


def run_fabric(
    task: Callable,
    work: list,
    pending: list[int],
    keys: list[str],
    results: list,
    context,
) -> None:
    """Run the pending points of one map on the configured fabric."""
    # Imported here, not at module top: supervisor imports the executors
    # package, so the driver reaches back lazily to close the cycle.
    from repro.harness.supervisor import _drain_report, _finish, check_deadline

    config: FabricConfig = context.fabric
    policy = context.policy
    # The workers share the sweep's journal; without one, this map gets
    # a temporary ledger of its own.
    tempdir: tempfile.TemporaryDirectory | None = None
    if context.journal is not None:
        ledger_path = str(context.journal.path)
    else:
        tempdir = tempfile.TemporaryDirectory(prefix="repro-fabric-")
        ledger_path = str(Path(tempdir.name) / "ledger.jsonl")

    backend = ShardExecutor(config, ledger_path)
    try:
        backend.ledger.write_config(_policy_config(context, config))
        index_by_key: dict[str, int] = {}
        for i in pending:
            index_by_key[keys[i]] = i
            backend.submit(
                SubmittedPoint(index=i, task=task, item=work[i], key=keys[i])
            )
        backend.start()

        outstanding = set(index_by_key.values())
        cycle = 0
        while outstanding:
            # Deadline expiry drains the fabric exactly like SIGINT
            # below: workers are cancelled with the same grace, the
            # ledger keeps every done record, and a resumed run skips
            # them.  Checked once per cycle, so expiry costs at most
            # one poll interval plus one point's latency.
            check_deadline(
                context, results, cancel=lambda: backend.cancel(grace=config.grace)
            )
            for event in backend.poll(config.poll_interval):
                index = index_by_key.get(event.handle)
                if event.kind in ("lease", "steal"):
                    context.count(f"fabric-{event.kind}")
                    metric = (
                        "repro_fabric_steals_total"
                        if event.kind == "steal"
                        else "repro_fabric_leases_total"
                    )
                    telemetry.counter(metric, shard=event.worker or "?").inc()
                elif event.kind == "verified":
                    context.count("fabric-verified")
                elif event.kind == "conflict":
                    ensure_no_conflicts(backend.ledger.state)
                elif index is None or index not in outstanding:
                    continue
                elif event.kind == "done":
                    outstanding.discard(index)
                    _finish(
                        context,
                        keys,
                        results,
                        index,
                        event.value,
                        wall_time_s=event.wall_time_s,
                        attempts=event.attempts or 1,
                    )
                elif event.kind == "failed":
                    if (event.attempts or 1) > policy.retries:
                        raise SweepPointError(
                            work[index], event.error, attempts=event.attempts or 1
                        ) from event.error
                    context.count("point-retry")
                elif event.kind == "quarantined":
                    context.count("fabric-quarantined")
                    cause = QuarantinedPointError(keys[index], event.value or [])
                    raise SweepPointError(
                        work[index], cause, attempts=(event.attempts or 0) + 1
                    ) from cause
            if outstanding:
                _tend_fleet(backend, context)
            if config.observer is not None:
                config.observer(backend, cycle)
            cycle += 1
    except KeyboardInterrupt:
        backend.cancel(grace=config.grace)
        _drain_report(context, results)
        raise SweepInterrupted(context.completed, context.total) from None
    finally:
        backend.close()
        if tempdir is not None:
            tempdir.cleanup()


def _tend_fleet(backend, context) -> None:
    """Respawn dead workers; export per-shard heartbeat-age gauges."""
    liveness = backend.liveness()
    if liveness.dead:
        replaced = backend.respawn()
        if replaced:
            context.count("fabric-worker-respawn", replaced)
            telemetry.counter("repro_fabric_respawns_total").inc(replaced)
    for worker_id, age in liveness.heartbeat_age.items():
        telemetry.gauge(
            "repro_fabric_heartbeat_age_seconds", shard=worker_id
        ).set(age)
