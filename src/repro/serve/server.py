"""The ``repro-serve`` daemon core: job store, executor, HTTP front door.

One :class:`JobServer` owns the whole pipeline:

* a :class:`~repro.serve.queue.JobQueue` for admission, priority, and
  batch planning;
* a content-keyed **result store** — a job whose
  :meth:`~repro.serve.jobspec.JobSpec.content_key` already completed is
  answered from the store without touching the queue at all (the
  ``repro_serve_dedup_total{kind="result"}`` counter makes that
  observable), and a batch whose capture the trace cache already holds
  runs without re-capture (``kind="capture"``);
* a single **executor thread** draining batches through
  :func:`~repro.serve.jobspec.run_batch` under the ambient sweep
  supervisor, so per-point retries/timeouts behave exactly as they do
  for ``repro-cosim``;
* a :class:`ThreadingHTTPServer` speaking small JSON bodies on
  loopback.

Endpoints (all under ``/v1``)::

    POST /v1/jobs                submit {"spec": {...}, "mode", "priority"}
    GET  /v1/jobs/<id>[?wait=S]  job status (long-poll until done)
    GET  /v1/jobs/<id>/windows   live 500µs telemetry windows per config
    GET  /v1/stats               queue/batch/dedup counters
    GET  /v1/metrics             Prometheus text exposition
    GET  /v1/healthz             liveness + drain state
    POST /v1/drain               stop admitting, finish pending, then exit

The executor is deliberately single-threaded: batches execute in
priority order one pass at a time (each pass may still fan out across
worker processes via ``jobs``), which keeps the priority-inversion
invariant trivially auditable and result bytes independent of request
concurrency.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.errors import JobSpecError, ReproError, ServeError
from repro.serve.jobspec import JobSpec, run_batch, summarize_results
from repro.serve.queue import (
    MODES,
    Batch,
    Job,
    JobQueue,
    check_mode_and_priority,
)
from repro.telemetry import runtime as telemetry
from repro.telemetry.sinks import render_prometheus


def _window_payload(spec: JobSpec, results) -> list[dict[str, Any]]:
    """The per-configuration telemetry-window stream, JSON-safe."""
    if spec.sample is not None:
        return []  # sampled results carry error bars, not window streams
    payload = []
    for size, result in zip(spec.cache, results):
        payload.append(
            {
                "cache_size": size,
                "line_size": spec.line,
                "windows": [
                    {
                        "index": sample.index,
                        "cycles": sample.cycles,
                        "instructions": sample.instructions,
                        "accesses": sample.accesses,
                        "misses": sample.misses,
                        "mpki": sample.mpki,
                    }
                    for sample in result.samples
                ],
            }
        )
    return payload


class JobServer:
    """The serving pipeline: admission → scheduler → batches → results."""

    def __init__(
        self,
        trace_cache=None,
        jobs: int | None = None,
        max_queue: int = 256,
        max_batch: int = 16,
        batching: bool = True,
        policy=None,
    ) -> None:
        self.trace_cache = trace_cache
        self.jobs = jobs
        self.batching = batching
        self.policy = policy
        self.queue = JobQueue(max_queue=max_queue, max_batch=max_batch)
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._results: dict[str, Job] = {}
        self._job_seq = 0
        self._worker: threading.Thread | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self.started_wall = time.time()
        #: Exact per-config results of every completed batch, kept only
        #: while telemetry is on so the drain-time profile can publish
        #: and reconcile them the way the CLI does (sampled results are
        #: excluded there too — they carry estimates, not counters).
        self._completed_results: list[Any] = []
        self.counts = {
            "submitted": 0,
            "invalid": 0,
            "completed": 0,
            "failed": 0,
            "deduplicated": 0,
            "capture_warm_batches": 0,
        }

    # -- submission ---------------------------------------------------

    def note_invalid(self, mode: Any = None) -> None:
        """Count one request refused with 400, under its mode if known."""
        self.counts["invalid"] += 1
        telemetry.counter(
            "repro_serve_requests_total",
            mode=mode if mode in MODES else "unknown",
            outcome="invalid",
        ).inc()

    def submit(self, payload: Any) -> tuple[dict[str, Any], int]:
        """Admit (or dedup-answer) one request; (response body, status)."""
        # Checked before the result-store lookup, so a request's status
        # never depends on what the store holds.  Every 400 counts as
        # invalid, under the request's mode when it names a known one.
        mode = payload.get("mode", "batch") if isinstance(payload, dict) else None
        try:
            if not isinstance(payload, dict):
                raise ServeError("request body must be a JSON object", status=400)
            unknown = sorted(set(payload) - {"spec", "mode", "priority"})
            if unknown:
                raise ServeError(
                    f"unknown request field(s): {', '.join(unknown)}", status=400
                )
            priority = payload.get("priority", 0)
            check_mode_and_priority(mode, priority)
            spec = JobSpec.from_json(payload.get("spec"))
        except (ServeError, JobSpecError) as error:
            self.note_invalid(mode)
            raise ServeError(str(error), status=400) from error
        key = spec.content_key()
        with self._lock:
            self.counts["submitted"] += 1
            done = self._results.get(key)
            if done is not None:
                # Answered from the content-keyed result store: no
                # queue, no capture, no replay.
                self._job_seq += 1
                job = Job(
                    id=f"job-{self._job_seq:06d}",
                    spec=spec,
                    mode=mode,
                    priority=priority,
                    seq=0,
                )
                now = time.monotonic()
                job.state = "done"
                job.outcome = "deduplicated"
                job.started = job.submitted
                job.completed = now
                job.digest = done.digest
                job.summary = done.summary
                job.windows = done.windows
                job.capture_warm = True
                job.done_event.set()
                self._jobs[job.id] = job
                self.counts["deduplicated"] += 1
                telemetry.counter("repro_serve_dedup_total", kind="result").inc()
                telemetry.counter(
                    "repro_serve_requests_total", mode=job.mode, outcome="deduplicated"
                ).inc()
                return job.describe(), 200
            self._job_seq += 1
            job_id = f"job-{self._job_seq:06d}"
        job = self.queue.submit(spec, mode, priority, job_id)
        with self._lock:
            self._jobs[job.id] = job
        return job.describe(), 202

    def get_job(self, job_id: str, wait: float = 0.0) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"no such job: {job_id}", status=404)
        if wait > 0:
            job.done_event.wait(timeout=min(wait, 60.0))
        return job

    # -- execution ----------------------------------------------------

    def _run_batch(self, batch: Batch) -> None:
        specs = batch.specs()
        leader = batch.leader
        warm = (
            self.trace_cache is not None
            and self.trace_cache.contains(leader.spec.capture_key())
        )
        if warm:
            self.counts["capture_warm_batches"] += 1
            telemetry.counter("repro_serve_dedup_total", kind="capture").inc()
        try:
            with telemetry.span("serve.batch"):
                per_spec = run_batch(specs, trace_cache=self.trace_cache, jobs=self.jobs)
        except ReproError as error:
            now = time.monotonic()
            for job in batch.jobs:
                job.state = "failed"
                job.outcome = "failed"
                job.error = f"{type(error).__name__}: {error}"
                job.completed = now
                job.capture_warm = warm
                self.counts["failed"] += 1
                telemetry.counter(
                    "repro_serve_requests_total", mode=job.mode, outcome="failed"
                ).inc()
                job.done_event.set()
            return
        now = time.monotonic()
        for job, results in zip(batch.jobs, per_spec):
            if telemetry.enabled() and job.spec.sample is None:
                self._completed_results.extend(results)
            job.summary = summarize_results(job.spec, results)
            job.digest = job.summary["digest"]
            job.windows = _window_payload(job.spec, results)
            job.state = "done"
            job.outcome = "completed"
            job.completed = now
            job.capture_warm = warm
            with self._lock:
                self._results.setdefault(job.spec.content_key(), job)
            self.counts["completed"] += 1
            telemetry.counter(
                "repro_serve_requests_total", mode=job.mode, outcome="completed"
            ).inc()
            job.done_event.set()

    def _worker_loop(self) -> None:
        from repro.harness.supervisor import SupervisorPolicy, supervise

        policy = self.policy or SupervisorPolicy()
        with supervise(policy):
            while True:
                # The wait span makes the profile's phase ledger add up:
                # a server's root span is mostly idle listening, and
                # idle time must be attributed, not unaccounted.
                with telemetry.span("serve.wait"):
                    batch = self.queue.take_batch(batching=self.batching)
                if batch is None:
                    return
                with telemetry.span("serve.job"):
                    self._run_batch(batch)
                self.queue.settle_batch()

    # -- lifecycle ----------------------------------------------------

    def start_worker(self) -> None:
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-serve-executor", daemon=True
        )
        self._worker.start()

    def start_http(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and serve; returns the (host, port) actually bound."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        bound = self._httpd.server_address
        return str(bound[0]), int(bound[1])

    def drain(self, wait: bool = True, timeout: float | None = None) -> bool:
        """Stop admissions, let pending work finish; True on clean drain."""
        self.queue.drain()
        if not wait:
            return True
        if self._worker is not None:
            self._worker.join(timeout=timeout)
            return not self._worker.is_alive()
        return True

    def shutdown(self) -> None:
        self.queue.stop()
        if self._worker is not None:
            self._worker.join(timeout=5.0)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)

    # -- introspection ------------------------------------------------

    @property
    def completed_results(self) -> list[Any]:
        return self._completed_results

    def stats(self) -> dict[str, Any]:
        queue = self.queue.stats()
        with self._lock:
            counts = dict(self.counts)
            results_stored = len(self._results)
        passes = queue["batches"]
        ran = counts["completed"] + counts["failed"]
        stats = {
            **queue,
            **counts,
            "results_stored": results_stored,
            "batching": self.batching,
            "replay_passes": passes,
            "jobs_per_pass": (ran / passes) if passes else 0.0,
            "uptime_s": time.time() - self.started_wall,
        }
        if self.trace_cache is not None:
            stats["trace_cache"] = self.trace_cache.stats.describe()
        return stats


def _make_handler(server: JobServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1"

        def log_message(self, format: str, *args: Any) -> None:
            pass  # request logging goes through telemetry, not stderr

        def _reply(self, status: int, payload: Any) -> None:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._reply(status, {"error": message, "status": status})

        def _read_body(self) -> Any:
            """The JSON request body, None when empty.

            Only a non-negative decimal ``Content-Length`` is read: a
            negative one would read to EOF, blocking until the client
            closes.  A bad length leaves the body unread, so the
            connection closes after the reply.  Every 400 raised here
            counts as an invalid request, as :meth:`JobServer.submit`'s
            do.
            """
            length = self.headers.get("Content-Length", "").strip() or "0"
            if length.isascii() and length.isdigit():
                raw = self.rfile.read(int(length))
                try:
                    return json.loads(raw.decode("utf-8")) if raw else None
                except (ValueError, UnicodeDecodeError) as error:
                    message = f"request body is not JSON: {error}"
            else:
                self.close_connection = True
                message = (
                    f"Content-Length must be a non-negative integer, got {length!r}"
                )
            server.note_invalid()
            raise ServeError(message, status=400)

        def do_POST(self) -> None:  # noqa: N802 (http.server convention)
            try:
                url = urlparse(self.path)
                if url.path == "/v1/jobs":
                    with telemetry.span("serve.admit"):
                        payload, status = server.submit(self._read_body())
                    self._reply(status, payload)
                elif url.path == "/v1/drain":
                    server.drain(wait=False)
                    self._reply(200, {"draining": True})
                else:
                    self._error(404, f"no such endpoint: {url.path}")
            except ServeError as error:
                self._error(error.status, str(error))

        def do_GET(self) -> None:  # noqa: N802
            try:
                url = urlparse(self.path)
                query = parse_qs(url.query)
                parts = [part for part in url.path.split("/") if part]
                if url.path == "/v1/healthz":
                    self._reply(
                        200, {"status": "ok", "draining": server.queue.draining}
                    )
                elif url.path == "/v1/stats":
                    self._reply(200, server.stats())
                elif url.path == "/v1/metrics":
                    registry = telemetry.registry()
                    text = render_prometheus(registry) if registry is not None else ""
                    body = text.encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", "text/plain; version=0.0.4")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                    wait = float(query.get("wait", ["0"])[0])
                    job = server.get_job(parts[2], wait=wait)
                    self._reply(200, job.describe())
                elif (
                    len(parts) == 4
                    and parts[:2] == ["v1", "jobs"]
                    and parts[3] == "windows"
                ):
                    job = server.get_job(parts[2])
                    if job.windows is None:
                        raise ServeError(
                            f"job {job.id} has no windows yet (state: {job.state})",
                            status=409,
                        )
                    self._reply(200, {"job_id": job.id, "configs": job.windows})
                else:
                    self._error(404, f"no such endpoint: {url.path}")
            except ServeError as error:
                self._error(error.status, str(error))
            except ValueError as error:
                self._error(400, str(error))

    return Handler
