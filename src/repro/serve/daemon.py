"""``repro-serve``: the co-simulation job server's command line.

Starts the daemon, prints (and optionally writes to ``--ready-file``)
the bound address, and serves until told to stop:

* ``SIGTERM`` or ``POST /v1/drain`` — stop admitting, finish every
  pending job, print the end-of-run summary, exit 0 (clean drain);
* ``SIGINT`` — the same drain, exit 130 (the shell convention all the
  repro CLIs share);
* ``--deadline`` — the governor's run-level budget; expiry drains and
  exits 124, exactly like ``repro-cosim``.

Examples::

    repro-serve --port 8123 --trace-cache ~/.cache/repro-traces
    repro-serve --port 0 --ready-file /tmp/serve.addr --profile
    repro-serve --no-batching --max-queue 64   # A/B baseline server
"""

from __future__ import annotations

import argparse
import signal
import threading
import time

from repro.exit_codes import EXIT_DEADLINE, EXIT_INTERRUPTED, EXIT_OK
from repro.governor.budget import active_governor
from repro.harness.cli import (
    _emit_telemetry,
    add_run_arguments,
    add_worker_arguments,
    build_budget,
    open_trace_cache,
    run_cli,
)
from repro.harness.supervisor import SupervisorPolicy
from repro.serve.server import JobServer
from repro.telemetry import profile as profiling
from repro.telemetry import runtime as telemetry


def build_parser() -> argparse.ArgumentParser:
    """The repro-serve argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve co-simulation jobs over local HTTP: admission "
        "queue, priority scheduler, and batch planner over the replay "
        "engine.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8123,
        help="bind port (0 picks a free one; see --ready-file)",
    )
    parser.add_argument(
        "--ready-file",
        metavar="FILE",
        default=None,
        help="write 'host port' to FILE once listening (atomic); how "
        "harnesses discover a --port 0 daemon",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="N",
        help="admission bound; a full queue answers 429 (default: 256)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=16,
        metavar="N",
        help="jobs one replay pass may coalesce (default: 16)",
    )
    parser.add_argument(
        "--no-batching",
        dest="batching",
        action="store_false",
        help="disable coalescing: every pass runs exactly one job (the "
        "traffic harness's A/B baseline)",
    )
    parser.set_defaults(batching=True)
    add_run_arguments(parser)
    add_worker_arguments(parser)
    return parser


def _write_ready_file(path: str, host: str, port: int) -> None:
    import os
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, staged = tempfile.mkstemp(dir=directory, prefix=".ready-")
    with os.fdopen(fd, "w") as handle:
        handle.write(f"{host} {port}\n")
    os.replace(staged, path)


def _summary_line(server: JobServer) -> str:
    stats = server.stats()
    return (
        f"repro-serve drained: {stats['completed']} completed, "
        f"{stats['deduplicated']} deduplicated, {stats['failed']} failed "
        f"over {stats['replay_passes']} replay pass(es) "
        f"({stats['jobs_per_pass']:.2f} jobs/pass), "
        f"{stats['priority_inversions']} priority inversion(s)"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_cli(_main, args, build_budget(args))


def _main(args: argparse.Namespace) -> int:
    server = JobServer(
        trace_cache=open_trace_cache(args),
        jobs=args.jobs,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        batching=args.batching,
        policy=SupervisorPolicy(timeout=args.timeout, retries=args.retries),
    )

    stop = threading.Event()
    interrupted = threading.Event()

    def _on_sigterm(signum, frame) -> None:
        server.queue.drain()
        stop.set()

    def _on_sigint(signum, frame) -> None:
        interrupted.set()
        server.queue.drain()
        stop.set()

    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, _on_sigint)

    with telemetry.span("run"):
        server.start_worker()
        host, port = server.start_http(args.host, args.port)
        print(f"repro-serve listening on {host}:{port}", flush=True)
        if args.ready_file:
            _write_ready_file(args.ready_file, host, port)

        exit_code = EXIT_OK
        governor = active_governor()
        while not stop.is_set():
            if server.queue.draining:
                break
            if governor is not None and governor.deadline_expired():
                print("deadline: serve budget expired; draining", flush=True)
                server.queue.drain()
                exit_code = EXIT_DEADLINE
                break
            stop.wait(0.1)

        # Drain: the queue stops admitting (new submits answer 503) and
        # the executor finishes every already-admitted job.
        server.drain(wait=True)
        print(_summary_line(server), flush=True)
        if interrupted.is_set():
            exit_code = EXIT_INTERRUPTED
        server.shutdown()
    if telemetry.enabled():
        # Workers do not share this registry: publish the served
        # results' aggregates parent-side (the CLI's contract) so the
        # profile reconciles real sums, not empty ones.
        profiling.publish_results(telemetry.registry(), server.completed_results)
    _emit_telemetry(args, server.completed_results)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
