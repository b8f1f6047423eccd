"""Admission queue, priority scheduler, and batch planner.

The serving pipeline between the HTTP front door and the replay
engine, as three small pieces sharing one lock:

* **admission** — :meth:`JobQueue.submit` bounds the pending backlog
  (``max_queue``); past the bound new work is rejected with a 429-style
  :class:`~repro.errors.ServeError` rather than queued into unbounded
  latency, and a draining server admits nothing at all (503).
* **priority scheduler** — the next batch *leader* is always the
  globally most-urgent pending job: highest ``priority`` first, then
  ``interactive`` before ``batch``, then FIFO sequence.  Because the
  leader is chosen globally, a batch can never start while a
  strictly-more-urgent job waits — the priority-inversion counter the
  server exports stays zero by construction, and the traffic harness
  asserts it.
* **batch planner** — every other pending job sharing the leader's
  :meth:`~repro.serve.jobspec.JobSpec.coalesce_key` (same captured
  trace, same per-pass knobs) rides the leader's single replay pass as
  a *rider*, up to ``max_batch`` jobs.  Riders are taken regardless of
  their own priority: riding costs one extra Dragonhead configuration
  in an already-running pass, so a low-priority rider finishing early
  never delays anyone.  ``batching=False`` (the harness's
  ``--no-batching`` baseline) degrades every batch to its leader alone.

The queue knows nothing about HTTP or the replay engine — it moves
:class:`Job` records between states under a condition variable, which
is what makes the scheduler unit-testable without sockets.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ServeError
from repro.serve.jobspec import JobSpec
from repro.telemetry import runtime as telemetry

#: Scheduler rank of each mode at equal priority: interactive requests
#: model a user waiting on the result; batch requests model backfill.
_MODE_RANK = {"interactive": 0, "batch": 1}

MODES = tuple(_MODE_RANK)


def check_mode_and_priority(mode: Any, priority: Any) -> None:
    """Refuse a request's ``mode`` or ``priority`` with a 400."""
    if mode not in MODES:
        raise ServeError(
            f"mode must be one of {', '.join(MODES)}, got {mode!r}", status=400
        )
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ServeError(f"priority must be an integer, got {priority!r}", status=400)


#: Job lifecycle: ``pending`` (admitted, queued) → ``running`` (in a
#: replay pass) → ``done`` | ``failed``.  Deduplicated jobs are born
#: ``done``; a drained-away job ends ``cancelled``.
STATES = ("pending", "running", "done", "failed", "cancelled")


@dataclass
class Job:
    """One admitted request's full lifecycle record."""

    id: str
    spec: JobSpec
    mode: str
    priority: int
    seq: int
    submitted_wall: float = field(default_factory=time.time)
    submitted: float = field(default_factory=time.monotonic)
    started: float | None = None
    completed: float | None = None
    state: str = "pending"
    outcome: str | None = None  # completed | deduplicated | failed | cancelled
    error: str | None = None
    batch_id: int | None = None
    batch_size: int = 0
    coalesced: bool = False
    capture_warm: bool = False
    digest: str | None = None
    summary: dict[str, Any] | None = None
    windows: list[dict[str, Any]] | None = None
    done_event: threading.Event = field(default_factory=threading.Event)

    def precedence(self) -> tuple[int, int, int]:
        """Scheduler order key — smaller runs first."""
        return (-self.priority, _MODE_RANK[self.mode], self.seq)

    @property
    def queue_ms(self) -> float | None:
        """Admission-to-start latency (the number the harness collects)."""
        if self.started is None:
            return None
        return (self.started - self.submitted) * 1e3

    @property
    def run_ms(self) -> float | None:
        if self.started is None or self.completed is None:
            return None
        return (self.completed - self.started) * 1e3

    def describe(self) -> dict[str, Any]:
        """The JSON the status and result endpoints return."""
        payload: dict[str, Any] = {
            "job_id": self.id,
            "state": self.state,
            "mode": self.mode,
            "priority": self.priority,
            "seq": self.seq,
            "content_key": self.spec.content_key(),
            "spec": self.spec.to_json(),
            "submitted_at": self.submitted_wall,
            "queue_ms": self.queue_ms,
            "run_ms": self.run_ms,
            "outcome": self.outcome,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
            "coalesced": self.coalesced,
            "capture_warm": self.capture_warm,
            "digest": self.digest,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.summary is not None:
            payload["result"] = self.summary
        return payload


@dataclass(frozen=True)
class Batch:
    """One planned replay pass: a leader plus its coalesced riders."""

    id: int
    jobs: tuple[Job, ...]
    coalesce_key: str

    @property
    def leader(self) -> Job:
        return self.jobs[0]

    def specs(self) -> list[JobSpec]:
        return [job.spec for job in self.jobs]


class JobQueue:
    """The pending-job store behind the scheduler, one lock around it."""

    def __init__(self, max_queue: int = 256, max_batch: int = 16) -> None:
        if max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {max_queue}", status=400)
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}", status=400)
        self.max_queue = max_queue
        self.max_batch = max_batch
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: list[Job] = []
        self._seq = 0
        self._batch_seq = 0
        self._draining = False
        self._stopped = False
        self.inversions = 0
        self.counts = {
            "admitted": 0,
            "rejected_full": 0,
            "rejected_draining": 0,
            "batches": 0,
            "coalesced_riders": 0,
        }

    # -- admission ----------------------------------------------------

    def submit(self, spec: JobSpec, mode: str, priority: int, job_id: str) -> Job:
        """Admit one job, or raise the backpressure/drain rejection."""
        check_mode_and_priority(mode, priority)
        with self._lock:
            if self._draining or self._stopped:
                self.counts["rejected_draining"] += 1
                raise ServeError("server is draining; not admitting jobs", status=503)
            if len(self._pending) >= self.max_queue:
                self.counts["rejected_full"] += 1
                raise ServeError(
                    f"admission queue full ({self.max_queue} pending); retry later",
                    status=429,
                )
            self._seq += 1
            job = Job(id=job_id, spec=spec, mode=mode, priority=priority, seq=self._seq)
            self._pending.append(job)
            self.counts["admitted"] += 1
            telemetry.gauge("repro_serve_queue_depth").set(len(self._pending))
            self._wake.notify()
            return job

    # -- scheduling ---------------------------------------------------

    def take_batch(self, batching: bool = True, timeout: float | None = None) -> Batch | None:
        """Block until work is available; plan and claim the next batch.

        Returns None when the queue is stopped and empty (the worker's
        exit signal) or when ``timeout`` elapses with nothing pending.
        """
        with self._lock:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not self._pending:
                if self._stopped or (self._draining and not self._pending):
                    return None
                wait = None if deadline is None else deadline - time.monotonic()
                if wait is not None and wait <= 0:
                    return None
                self._wake.wait(wait)
            leader = min(self._pending, key=Job.precedence)
            if batching:
                key = leader.spec.coalesce_key()
                riders = [
                    job
                    for job in self._pending
                    if job is not leader and job.spec.coalesce_key() == key
                ]
                riders.sort(key=Job.precedence)
                members = [leader] + riders[: self.max_batch - 1]
            else:
                key = leader.spec.coalesce_key()
                members = [leader]
            # A leader chosen globally cannot leave a more-urgent job
            # pending; counting it anyway keeps the invariant observable
            # rather than assumed (the smoke asserts the counter is 0).
            floor = leader.precedence()
            for job in self._pending:
                if job not in members and job.precedence() < floor:
                    self.inversions += 1
            for job in members:
                self._pending.remove(job)
            now = time.monotonic()
            self._batch_seq += 1
            for job in members:
                job.state = "running"
                job.started = now
                job.batch_id = self._batch_seq
                job.batch_size = len(members)
                job.coalesced = len(members) > 1
            self.counts["batches"] += 1
            self.counts["coalesced_riders"] += len(members) - 1
            telemetry.gauge("repro_serve_queue_depth").set(len(self._pending))
            telemetry.gauge("repro_serve_in_flight").set(len(members))
            telemetry.histogram("repro_serve_batch_size").observe(len(members))
            return Batch(id=self._batch_seq, jobs=tuple(members), coalesce_key=key)

    def settle_batch(self) -> None:
        """A batch finished; the in-flight gauge returns to zero."""
        with self._lock:
            telemetry.gauge("repro_serve_in_flight").set(0)
            self._wake.notify_all()

    # -- lifecycle ----------------------------------------------------

    def drain(self) -> None:
        """Stop admitting; pending jobs still run (the SIGTERM path)."""
        with self._lock:
            self._draining = True
            self._wake.notify_all()

    def stop(self) -> None:
        """Stop immediately; pending jobs are cancelled (fast abort)."""
        with self._lock:
            self._stopped = True
            for job in self._pending:
                job.state = "cancelled"
                job.outcome = "cancelled"
                job.completed = time.monotonic()
                job.done_event.set()
            self._pending.clear()
            telemetry.gauge("repro_serve_queue_depth").set(0)
            self._wake.notify_all()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining or self._stopped

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "queue_depth": len(self._pending),
                "max_queue": self.max_queue,
                "max_batch": self.max_batch,
                "draining": self._draining or self._stopped,
                "priority_inversions": self.inversions,
                **self.counts,
            }
