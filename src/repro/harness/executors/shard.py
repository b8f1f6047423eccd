"""``--executor shard``: forked work-stealing workers on this machine.

N independent worker processes — real processes, not pool members —
each run :func:`~repro.harness.executors.worker.work_loop` against the
shared ledger.  There is no in-memory coupling between them: killing
any subset at any instant (the chaos harness does exactly that) loses
only their in-flight leases, which the survivors steal after the TTL.

The executor itself manifests points, translates ledger records into
:class:`~repro.harness.executors.base.PointEvent` streams, reports
liveness, respawns dead workers, and drains SIGTERM→grace→SIGKILL.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.errors import FabricError, RemotePointError
from repro.harness.executors.base import FabricConfig, PointEvent, SubmittedPoint
from repro.harness.executors.ledger import FabricLedger, _decode


@dataclass
class LivenessReport:
    """Vital signs of the fleet's workers at one instant."""

    #: worker id → alive (process-level: the pid still runs).
    alive: dict[str, bool] = field(default_factory=dict)
    #: worker id → seconds since its last ledger claim or heartbeat.
    heartbeat_age: dict[str, float] = field(default_factory=dict)

    @property
    def dead(self) -> list[str]:
        return [wid for wid, ok in self.alive.items() if not ok]


def _shard_main(ledger_path: str, worker_id: str) -> None:
    """Entry point of one forked shard worker."""
    from repro.harness.executors.worker import work_loop

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # A forked worker must never bubble KeyboardInterrupt into the
    # parent's traceback machinery; the parent drains via SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise SystemExit(work_loop(ledger_path, worker_id, stop=stop))


class ShardExecutor:
    """Forked worker fleet coordinating through the shared ledger."""

    def __init__(self, config: FabricConfig, ledger_path: str) -> None:
        self.config = config
        self.ledger_path = ledger_path
        self.ledger = FabricLedger(ledger_path, resume=True)
        # Fold in what earlier runs and maps recorded, so that polls
        # report only this map's records.
        self.ledger.scan()
        self.workers: dict[str, multiprocessing.Process] = {}
        self.respawns = 0
        self._spawned = 0
        self._started = False

    def submit(self, point: SubmittedPoint) -> str:
        self.ledger.manifest([(point.key, (point.task, point.item))])
        return point.key

    def start(self) -> None:
        """Launch the fleet (after the manifest and config are down)."""
        if self._started:
            return
        self._started = True
        for _ in range(self.config.shards):
            self._spawn_next()

    def _spawn_next(self) -> None:
        self._spawned += 1
        worker_id = f"shard-{self._spawned}"
        process = multiprocessing.Process(
            target=_shard_main,
            args=(self.ledger_path, worker_id),
            name=f"repro-fabric-{worker_id}",
            daemon=False,
        )
        process.start()
        self.workers[worker_id] = process

    def poll(self, timeout: float | None) -> list[PointEvent]:
        rows = self.ledger.scan()
        if not rows and timeout:
            time.sleep(timeout)
            rows = self.ledger.scan()
        events: list[PointEvent] = []
        for row in rows:
            event = self._translate(row)
            if event is not None:
                events.append(event)
        return events

    def _translate(self, row: dict) -> PointEvent | None:
        kind = row.get("type")
        key = row.get("key")
        worker = row.get("worker")
        if kind == "claimed":
            return PointEvent(
                kind="steal" if row.get("steal") else "lease",
                handle=key,
                worker=worker,
            )
        if kind == "done":
            return PointEvent(
                kind="done",
                handle=key,
                value=_decode(row["result"]),
                wall_time_s=row.get("wall_time_s"),
                attempts=row.get("attempts", 1),
                worker=worker,
            )
        if kind == "failed":
            return PointEvent(
                kind="failed",
                handle=key,
                error=RemotePointError(row.get("error", "?"), worker=worker),
                attempts=row.get("attempts", 1),
                worker=worker,
            )
        if kind == "quarantined":
            return PointEvent(
                kind="quarantined",
                handle=key,
                value=row.get("dead_workers", []),
                worker=worker,
            )
        if kind in ("verified", "conflict"):
            return PointEvent(kind=kind, handle=key, worker=worker)
        return None  # config / point / heartbeat: not driver events

    def liveness(self) -> LivenessReport:
        report = LivenessReport()
        now = time.time()
        for worker_id, process in self.workers.items():
            report.alive[worker_id] = process.is_alive()
            seen = self.ledger.state.last_seen.get(worker_id)
            if seen is not None:
                report.heartbeat_age[worker_id] = max(0.0, now - seen)
        return report

    def respawn(self) -> int:
        """Replace dead workers up to the fleet's target strength.

        Returns how many were respawned; raises :class:`FabricError`
        once the respawn budget is exhausted — a fleet whose workers
        die on arrival is misconfigured, not unlucky.
        """
        replaced = 0
        for worker_id, process in list(self.workers.items()):
            if process.is_alive():
                continue
            del self.workers[worker_id]
            if self.respawns >= self.config.max_respawns:
                raise FabricError(
                    f"fabric workers died {self.respawns} times (budget "
                    f"{self.config.max_respawns}); refusing to respawn "
                    "further — check the worker environment"
                )
            self.respawns += 1
            replaced += 1
            self._spawn_next()
        return replaced

    def cancel(self, grace: float = 5.0) -> None:
        """Drain: SIGTERM everyone, wait out ``grace``, SIGKILL."""
        for process in self.workers.values():
            if process.is_alive():
                try:
                    process.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + max(0.0, grace)
        for process in self.workers.values():
            process.join(max(0.0, deadline - time.monotonic()))
        for process in self.workers.values():
            if process.is_alive():
                try:
                    process.kill()
                except OSError:
                    pass
                process.join(5.0)
        self.workers.clear()

    def close(self) -> None:
        self.cancel(grace=self.config.grace)

    def worker_pids(self) -> dict[str, int]:
        """Live worker id → pid (what a chaos monkey SIGKILLs)."""
        return {
            worker_id: process.pid
            for worker_id, process in self.workers.items()
            if process.is_alive()
        }
