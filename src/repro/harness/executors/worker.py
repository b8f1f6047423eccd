"""The work-stealing worker loop every shard worker runs.

One worker is deliberately dumb: it knows a ledger path and its own
name, nothing else.  Policy (lease TTL, retries, backoff, quarantine
threshold, fault plan) arrives through the ledger's ``config`` record,
and work arrives through ``point`` records.

The loop::

    scan → all points terminal? exit
         → claim the first available point (stealing expired leases,
           quarantining poison) or sleep and rescan
         → run it under a heartbeat thread
         → record done (byte-identity-verified against any racing
           first finisher) or failed (with backoff)

Death-safety: the worker writes nothing except durable ledger appends,
so SIGKILL at *any* instruction loses at most the in-flight attempt —
the lease expires, another worker steals the point, and the content-
keyed result keeps the sweep bit-identical.  SIGTERM requests a drain:
the worker finishes (or abandons, if the parent's grace period runs
out) its current point and claims nothing more.
"""

from __future__ import annotations

import os
import threading
import time

from repro.faults.spec import FaultSpec
from repro.harness.executors.ledger import Claim, FabricLedger

#: Exit code of a worker felled by an injected crash (mirrors the
#: supervisor's pool-worker fault channel).
INJECTED_CRASH_EXIT = 73


class _Heartbeat:
    """Renews one claim's lease from a daemon thread while a task runs."""

    def __init__(
        self,
        ledger: FabricLedger,
        key: str,
        worker: str,
        lease_ttl: float,
        period: float,
    ) -> None:
        self._ledger = ledger
        self._key = key
        self._worker = worker
        self._ttl = lease_ttl
        self._period = max(0.01, period)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self._period):
            try:
                # Append-only, no shared-state scan: safe off-thread.
                self._ledger.heartbeat(self._key, self._worker, self._ttl)
            except OSError:  # pragma: no cover - transient FS trouble
                pass  # a missed beat costs at worst one stolen lease


def _execute(
    ledger: FabricLedger,
    claim: Claim,
    worker: str,
    config: dict,
    spec: FaultSpec | None,
) -> None:
    """Run one claimed point and record its outcome durably."""
    task, item = claim.load()
    if spec is not None and claim.attempt == 1 and not claim.steal:
        # Injected harness faults hit a point's first execution only
        # (same contract as the pool backend) — a stolen point has
        # already been executed once, so it is never re-injected.
        fault = spec.harness_fault(claim.key)
        if fault == "crash":
            os._exit(INJECTED_CRASH_EXIT)
        elif fault == "hang":
            time.sleep(spec.hang_seconds)
    lease_ttl = float(config["lease_ttl"])
    heartbeat = _Heartbeat(
        ledger,
        claim.key,
        worker,
        lease_ttl,
        float(config.get("heartbeat_every", lease_ttl / 3.0)),
    )
    begin = time.perf_counter()
    try:
        with heartbeat:
            value = task(item)
    except Exception as error:
        backoff = min(
            float(config.get("backoff_cap", 8.0)),
            float(config.get("backoff_base", 0.25)) * (2 ** (claim.attempt - 1)),
        )
        ledger.record_failed(
            claim.key, worker, claim.attempt, error, time.time() + backoff
        )
    else:
        ledger.record_done(
            claim.key,
            worker,
            value,
            wall_time_s=time.perf_counter() - begin,
            attempts=claim.attempt,
        )


def work_loop(
    ledger_path: str,
    worker_id: str,
    poll_interval: float | None = None,
    stop: threading.Event | None = None,
) -> int:
    """Steal and run points until every manifested point is terminal.

    Returns 0 on a clean drain.  ``stop`` (set by the SIGTERM handler)
    ends the loop at the next claim boundary.
    """
    ledger = FabricLedger(ledger_path, resume=True, create=False)
    ledger.scan()
    while not ledger.state.config:
        if stop is not None and stop.is_set():
            return 0
        time.sleep(0.02)
        ledger.scan()
    config = ledger.state.config
    retries = int(config.get("retries", 2))
    quarantine_after = int(config.get("quarantine_after", 3))
    lease_ttl = float(config["lease_ttl"])
    interval = (
        poll_interval
        if poll_interval is not None
        else float(config.get("poll_interval", 0.05))
    )
    spec = (
        FaultSpec.parse(config["inject"]) if config.get("inject") else None
    )
    while stop is None or not stop.is_set():
        ledger.scan()
        if ledger.state.points and ledger.state.all_terminal(retries):
            return 0
        claim = ledger.try_claim(
            worker_id, lease_ttl, retries, quarantine_after
        )
        if claim is None:
            time.sleep(interval)
            continue
        _execute(ledger, claim, worker_id, config, spec)
    return 0

