#!/usr/bin/env python
"""Open-loop traffic replay against a ``repro-serve`` daemon.

Drives the serving layer the way a production front end would: a CSV
schedule of requests — ``request_id, arrival_offset, mode, priority,
body_json`` — is replayed *open loop* (each request is sent at its
arrival offset regardless of whether earlier ones finished, so a slow
server accumulates queueing latency instead of silently throttling the
workload), then every job is awaited and the server's own records are
collected into:

* queueing-latency percentiles (p50/p90/p99) per mode — the number a
  latency SLO is written against;
* batching efficiency — completed jobs per replay pass (the coalescing
  win the batch planner exists for);
* priority inversions — how often a pass started while a strictly
  more-urgent job waited (zero by construction; asserted, not assumed);
* dedup counts — jobs answered from the content-keyed result store.

``--generate N --seed S`` synthesizes a mixed schedule first (seeded,
so CI replays the identical workload every run): requests spread over
a few coalesce groups — same capture, different Dragonhead geometry —
with interactive and batch modes and spread priorities.

``--compare-no-batching`` runs the same schedule twice — once against
a coalescing server, once against ``--no-batching`` — with the trace
cache disabled so every pass pays its capture, and reports the
throughput ratio (the ISSUE's ≥2× acceptance bar rides on capture
dominating a pass; a warm cache would hide exactly the cost batching
saves).

Assertions (``--assert-p99-ms``, ``--assert-min-coalesce``,
``--assert-zero-inversions``, ``--assert-speedup``) turn measurements
into exit codes for CI.  Results append to ``BENCH_serve.json`` as a
machine-stamped history entry (same schema as the other BENCH files).

Examples::

    python scripts/traffic_replay.py --generate 32 --seed 7 --csv /tmp/t.csv
    python scripts/traffic_replay.py --csv /tmp/t.csv --spawn
    python scripts/traffic_replay.py --csv /tmp/t.csv --spawn \\
        --compare-no-batching --assert-speedup 2.0 --bench BENCH_serve.json
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ServeError  # noqa: E402
from repro.exit_codes import EXIT_INTERNAL, EXIT_OK  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

BENCH_HISTORY_FORMAT = 2

#: The generator's coalesce groups: one capture each (workload, cores,
#: quantum, synthetic stream), fanned out over per-request geometry.
_GROUPS = (
    {"workload": "FIMI", "cores": 2, "accesses": 65536},
    {"workload": "FIMI", "cores": 4, "accesses": 65536},
    {"workload": "SNP", "cores": 2, "accesses": 65536},
    {"workload": "SVM-RFE", "cores": 2, "accesses": 65536},
)

_CACHES_MB = (1, 2, 4, 8)


def generate_schedule(count: int, seed: int, spread_s: float) -> list[dict]:
    """A seeded mixed schedule: ``count`` requests over ``spread_s``.

    Each request sweeps a two-size subset of its group's standard
    cache ladder, so group-mates overlap in geometry without being
    spec-identical: the batch planner's union replay amortizes both
    the shared capture *and* the shared configurations, which is the
    effect the ``--compare-no-batching`` A/B exists to expose.
    """
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        group = _GROUPS[rng.randrange(len(_GROUPS))]
        spec = {
            "workload": group["workload"],
            "cores": group["cores"],
            "quantum": 4096,
            "source": "synthetic",
            "accesses": group["accesses"],
            "cache": [
                mb * 1024 * 1024 for mb in sorted(rng.sample(_CACHES_MB, 2))
            ],
        }
        rows.append(
            {
                "request_id": f"req-{index:04d}",
                "arrival_offset": round(rng.uniform(0.0, spread_s), 4),
                "mode": "interactive" if rng.random() < 0.5 else "batch",
                "priority": rng.randrange(0, 3),
                "body_json": json.dumps(spec, sort_keys=True),
            }
        )
    rows.sort(key=lambda row: row["arrival_offset"])
    return rows


FIELDS = ("request_id", "arrival_offset", "mode", "priority", "body_json")


def write_schedule(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def read_schedule(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = set(FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise SystemExit(
                f"schedule {path} lacks column(s): {', '.join(sorted(missing))}"
            )
        rows = []
        for row in reader:
            rows.append(
                {
                    "request_id": row["request_id"],
                    "arrival_offset": float(row["arrival_offset"]),
                    "mode": row["mode"],
                    "priority": int(row["priority"]),
                    "body_json": row["body_json"],
                }
            )
    rows.sort(key=lambda row: row["arrival_offset"])
    return rows


# -- daemon management ----------------------------------------------------


class SpawnedDaemon:
    """A repro-serve child process discovered through its ready file."""

    def __init__(self, extra_args: list[str]) -> None:
        self._dir = tempfile.mkdtemp(prefix="traffic-serve-")
        ready = os.path.join(self._dir, "ready")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--port",
                "0",
                "--ready-file",
                ready,
                "--telemetry",
                *extra_args,
            ],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 30.0
        while not os.path.exists(ready):
            if self.process.poll() is not None:
                raise SystemExit(
                    "daemon exited before becoming ready:\n"
                    + (self.process.stdout.read() if self.process.stdout else "")
                )
            if time.monotonic() > deadline:
                self.process.kill()
                raise SystemExit("daemon never wrote its ready file")
            time.sleep(0.05)
        host, port = open(ready, encoding="utf-8").read().split()
        self.host, self.port = host, int(port)

    def stop(self) -> str:
        """SIGTERM → clean drain; returns the daemon's output."""
        self.process.send_signal(signal.SIGTERM)
        try:
            output, _ = self.process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.process.kill()
            output, _ = self.process.communicate()
            raise SystemExit("daemon did not drain on SIGTERM")
        if self.process.returncode != 0:
            raise SystemExit(
                f"daemon exited {self.process.returncode} on SIGTERM "
                f"(expected clean drain):\n{output}"
            )
        return output


# -- replay ---------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (no numpy dependency in the hot loop)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def replay(client: ServeClient, rows: list[dict], timeout: float) -> dict:
    """Send the schedule open loop; await and collect every job."""
    results: dict[str, dict] = {}
    errors: list[str] = []
    lock = threading.Lock()

    def _send(row: dict) -> None:
        try:
            response = client.submit(
                json.loads(row["body_json"]),
                mode=row["mode"],
                priority=row["priority"],
            )
            with lock:
                results[row["request_id"]] = response
        except ServeError as error:
            with lock:
                errors.append(f"{row['request_id']}: [{error.status}] {error}")

    start = time.monotonic()
    threads = []
    for row in rows:
        delay = row["arrival_offset"] - (time.monotonic() - start)
        if delay > 0:
            time.sleep(delay)
        # One thread per request: submission never waits on completion
        # (open loop) nor on another submission's round trip.
        thread = threading.Thread(target=_send, args=(row,), daemon=True)
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=timeout)
    jobs = {}
    for request_id, response in sorted(results.items()):
        jobs[request_id] = client.wait(response["job_id"], timeout=timeout)
    wall_s = time.monotonic() - start
    return {"jobs": jobs, "errors": errors, "wall_s": wall_s}


def summarize(run: dict, stats: dict) -> dict:
    """The measurement block: latency percentiles + pipeline counters."""
    jobs = run["jobs"]
    by_mode: dict[str, list[float]] = {"interactive": [], "batch": []}
    failed = []
    for request_id, job in jobs.items():
        if job["state"] != "done":
            failed.append(f"{request_id}: {job.get('error', job['state'])}")
            continue
        if job["outcome"] == "completed" and job["queue_ms"] is not None:
            by_mode.setdefault(job["mode"], []).append(job["queue_ms"])
    latencies = {
        mode: {
            "count": len(values),
            "p50_ms": round(percentile(values, 0.50), 3),
            "p90_ms": round(percentile(values, 0.90), 3),
            "p99_ms": round(percentile(values, 0.99), 3),
        }
        for mode, values in by_mode.items()
    }
    passes = stats.get("replay_passes", 0)
    completed = stats.get("completed", 0)
    return {
        "requests": len(jobs),
        "failed": failed,
        "errors": run["errors"],
        "wall_s": round(run["wall_s"], 3),
        "throughput_rps": round(len(jobs) / run["wall_s"], 3) if run["wall_s"] else 0.0,
        "queueing_latency": latencies,
        "replay_passes": passes,
        "completed": completed,
        "deduplicated": stats.get("deduplicated", 0),
        "jobs_per_pass": round(completed / passes, 3) if passes else 0.0,
        "max_coalesced": stats.get("coalesced_riders", 0),
        "priority_inversions": stats.get("priority_inversions", 0),
    }


def run_once(rows: list[dict], serve_args: list[str], timeout: float) -> dict:
    """Spawn a daemon, replay the schedule, drain it; measurements."""
    daemon = SpawnedDaemon(serve_args)
    client = ServeClient(daemon.host, daemon.port)
    client.wait_ready()
    try:
        run = replay(client, rows, timeout)
        stats = client.stats()
    finally:
        output = daemon.stop()
    summary = summarize(run, stats)
    summary["drain_output"] = output.strip().splitlines()[-1] if output.strip() else ""
    return summary


# -- BENCH history --------------------------------------------------------


def _machine_stamp() -> dict:
    return {
        "hostname": platform.node(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def append_bench(path: str, results: dict) -> None:
    """Append one machine-stamped entry to the BENCH history file."""
    entries = []
    target = Path(path)
    if target.exists():
        try:
            existing = json.loads(target.read_text(encoding="utf-8"))
            if isinstance(existing, dict) and isinstance(existing.get("entries"), list):
                entries = existing["entries"]
        except ValueError:
            entries = []
    entries.append({"machine": _machine_stamp(), "results": results})
    staged = target.with_name(target.name + ".tmp")
    staged.write_text(
        json.dumps({"format": BENCH_HISTORY_FORMAT, "entries": entries}, indent=2)
        + "\n",
        encoding="utf-8",
    )
    staged.replace(target)


# -- entry ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traffic_replay",
        description="Replay a request schedule against repro-serve, open loop.",
    )
    parser.add_argument("--csv", required=True, metavar="FILE", help="schedule file")
    parser.add_argument(
        "--generate",
        type=int,
        default=None,
        metavar="N",
        help="synthesize an N-request schedule into --csv first",
    )
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument(
        "--spread",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="arrival window for generated schedules (default: 2s)",
    )
    parser.add_argument(
        "--spawn",
        action="store_true",
        help="spawn a private daemon (--port 0) instead of targeting one",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None, help="existing daemon")
    parser.add_argument(
        "--serve-arg",
        action="append",
        default=[],
        metavar="ARG",
        help="extra argument for spawned daemons (repeatable)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-job completion timeout (default: 300s)",
    )
    parser.add_argument(
        "--compare-no-batching",
        action="store_true",
        help="also replay against a --no-batching daemon (trace cache "
        "off on both sides) and report the coalescing speedup",
    )
    parser.add_argument(
        "--assert-p99-ms",
        type=float,
        default=None,
        metavar="MS",
        help="fail unless interactive p99 queueing latency is under MS",
    )
    parser.add_argument(
        "--assert-min-coalesce",
        type=float,
        default=None,
        metavar="JOBS",
        help="fail unless completed jobs per replay pass >= JOBS",
    )
    parser.add_argument(
        "--assert-zero-inversions",
        action="store_true",
        help="fail on any recorded priority inversion",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="with --compare-no-batching: fail unless batched throughput "
        "is X times the unbatched baseline",
    )
    parser.add_argument(
        "--bench",
        metavar="FILE",
        default=None,
        help="append the measurements to FILE as a BENCH history entry",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.generate is not None:
        rows = generate_schedule(args.generate, args.seed, args.spread)
        write_schedule(rows, args.csv)
        print(f"generated {len(rows)} requests into {args.csv}")
    rows = read_schedule(args.csv)
    if not args.spawn and args.port is None:
        build_parser().error("target a daemon with --port or pass --spawn")

    serve_args = list(args.serve_arg)
    if args.compare_no_batching:
        # Both sides of the comparison run cache-cold: coalescing's win
        # is the shared capture, and a warm cache on either side would
        # erase exactly the cost under measurement.
        serve_args = ["--trace-cache", "off", *serve_args]
    if args.spawn:
        print(f"replaying {len(rows)} requests against a spawned daemon ...")
        batched = run_once(rows, serve_args, args.timeout)
    else:
        client = ServeClient(args.host, args.port)
        client.wait_ready()
        run = replay(client, rows, args.timeout)
        batched = summarize(run, client.stats())
        batched["drain_output"] = ""

    results: dict = {"schedule": {"requests": len(rows), "seed": args.seed}, "batched": batched}
    print(json.dumps(batched, indent=2))

    failures: list[str] = []
    if args.compare_no_batching:
        if not args.spawn:
            build_parser().error("--compare-no-batching requires --spawn")
        print(f"replaying {len(rows)} requests against a --no-batching daemon ...")
        unbatched = run_once(rows, ["--no-batching", *serve_args], args.timeout)
        batched_cold = batched
        speedup = (
            batched_cold["throughput_rps"] / unbatched["throughput_rps"]
            if unbatched["throughput_rps"]
            else float("inf")
        )
        results["unbatched"] = unbatched
        results["batched_cold"] = batched_cold
        results["speedup"] = round(speedup, 3)
        print(
            f"coalescing speedup: {speedup:.2f}x "
            f"({batched_cold['throughput_rps']} vs "
            f"{unbatched['throughput_rps']} req/s, "
            f"{batched_cold['jobs_per_pass']:.2f} vs "
            f"{unbatched['jobs_per_pass']:.2f} jobs/pass)"
        )
        if args.assert_speedup is not None and speedup < args.assert_speedup:
            failures.append(
                f"speedup {speedup:.2f}x under the {args.assert_speedup}x bar"
            )

    interactive = batched["queueing_latency"].get("interactive", {})
    if (
        args.assert_p99_ms is not None
        and interactive.get("count")
        and interactive["p99_ms"] > args.assert_p99_ms
    ):
        failures.append(
            f"interactive p99 {interactive['p99_ms']}ms over the "
            f"{args.assert_p99_ms}ms bound"
        )
    if (
        args.assert_min_coalesce is not None
        and batched["jobs_per_pass"] < args.assert_min_coalesce
    ):
        failures.append(
            f"{batched['jobs_per_pass']} jobs/pass under the "
            f"{args.assert_min_coalesce} coalescing bar"
        )
    if args.assert_zero_inversions and batched["priority_inversions"]:
        failures.append(
            f"{batched['priority_inversions']} priority inversion(s) recorded"
        )
    if batched["failed"] or batched["errors"]:
        failures.append(
            f"{len(batched['failed'])} failed job(s), "
            f"{len(batched['errors'])} rejected request(s)"
        )

    if args.bench:
        append_bench(args.bench, results)
        print(f"appended history entry to {args.bench}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return EXIT_INTERNAL
    print("traffic replay passed")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
