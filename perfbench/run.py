"""Repository benchmark: run one workload, check it, report its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload serve_mixed --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # one row per workload

``--trace 0`` measures the end-to-end metrics BENCHMARK.json lists;
``--trace 1`` measures the per-layer metrics: the workload runs for half
the time untraced, then the same passes again with every layer wrapped
in spans, and the difference in wall time is the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Latencies are per operation on every workload (one ``JobSpec.run``,
one served request timed from its due time).  ``latency_p95_ms`` is the 95th percentile once 200
operations ran; below that it is the highest percentile that still has
ten operations beyond it, which the printed row names.

Every number is host time except ``simpoint.mpki_max_rel_err``, a
simulated statistic.  Every replay starts with empty modelled caches.
The run reads and writes only inside the checkout (scratch files go to
``perfbench/.work/``, removed on exit).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("kernel_fanout", "serve_mixed")
#: Set-up runs this many times; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Imports are timed in this process and this many fresh interpreters.
IMPORT_CHILDREN = 4
#: Self times must add up to the traced wall time within this share.
RECONCILE_BOUND = 0.01


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB.

    Pool workers count too, so moving work into them cannot read as a
    memory saving.  ``ru_maxrss`` is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_seconds(in_process: float) -> float:
    """Median import time: this process and ``IMPORT_CHILDREN`` fresh interpreters.

    Imports can happen only once per process, so the repeats that make
    ``setup_s`` a median run in child interpreters, waited for here.
    """
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path[:0] = {[str(ROOT / 'src'), str(ROOT)]!r}\n"
        "import perfbench.workloads\n"
        "print(time.perf_counter() - start)\n"
    )
    samples = [in_process]
    for _ in range(IMPORT_CHILDREN):
        child = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def end_to_end(workload, seed, seconds, workdir, import_s):
    from perfbench.metrics import percentile, resolved_tail
    from perfbench.workloads import Run, load_refs

    refs = load_refs(workload)
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state = workload.setup(seed, seconds, workdir)
        setups.append(time.perf_counter() - start)
    run = Run()
    try:
        workload.measure(state, seconds, run, refs)
    finally:
        workload.teardown(state)
    latencies = run.latencies_ms or [0.0]
    # A tail is reported only where at least ten operations lie beyond
    # it: p95 from 200 operations on, the highest resolved percentile
    # below that (the row prints which), the median at ten or fewer.
    tail = min(95, resolved_tail(len(run.latencies_ms)) or 50)
    values = {
        "setup_s": import_s + statistics.median(setups),
        "accesses_per_s": run.work / run.wall_s if run.wall_s > 0 else 0.0,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, tail),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = (
        f"passes={run.passes} error_rate={run.outcomes.error_rate:.4g} "
        f"import_s={import_s:.3f} setups_s={','.join(f'{s:.3f}' for s in setups)}"
    )
    if "simpoint.mpki_max_rel_err" in run.layer:
        extra += f" mpki_max_rel_err={run.layer['simpoint.mpki_max_rel_err']:.4g}"
    return run, values, len(run.latencies_ms), extra


def per_layer(workload, seed, seconds, workdir, wanted):
    from perfbench.tracing import (
        inclusive_times, instrument, layer_self_times, reconcile, Tracer,
    )
    from perfbench.workloads import Run, load_refs

    refs = load_refs(workload)
    half = max(seconds / 2, 0.5)
    untraced = Run()
    state = workload.setup(seed, half, workdir)
    try:
        workload.measure(state, half, untraced, refs)
    finally:
        workload.teardown(state)

    tracer = Tracer()
    run = Run()
    run.outcomes = untraced.outcomes
    state = workload.setup(seed, half, workdir)
    instrumentation = instrument(tracer)
    try:
        with tracer.root_span(workload.name) as root:
            workload.measure(state, half, run, refs, passes=untraced.passes)
    finally:
        instrumentation.restore()
        workload.teardown(state)

    spans = tracer.spans
    incl = inclusive_times(spans)
    selfs = layer_self_times(spans)
    calls = Counter(span.name for span in spans)
    counts = tracer.counts
    loads = calls["trace.cache.load"]
    hits = counts["trace.cache.hits"]
    gap = reconcile(spans, root)
    values = {
        "cache.emulator.emulate_s": incl.get("cache.emulator.emulate_stream", 0.0),
        "cache.emulator.accesses": counts["cache.emulator.accesses"],
        "cache.fastlru.probe_s": incl.get("cache.fastlru.probe", 0.0),
        "cache.fastlru.probe_calls": calls["cache.fastlru.probe"],
        "cache.fastlru.lines": counts["cache.fastlru.lines"],
        "cache.sampling.window_s": incl.get("cache.sampling.advance_series", 0.0),
        "cache.sampling.windows": counts["cache.sampling.windows"],
        "harness.replay.points": calls["harness.replay.replay"],
        "harness.replay.busy_s": incl.get("harness.replay.replay", 0.0),
        "harness.replay.materialize_s": incl.get("harness.replay.materialize", 0.0),
        "core.captures": calls["core.capture"],
        "core.capture_s": incl.get("core.capture", 0.0),
        "core.captured_accesses": counts["core.captured_accesses"],
        "harness.parallel.maps": calls["harness.parallel.map"],
        "harness.parallel.points": counts["harness.parallel.points"],
        "harness.parallel.busy_s": incl.get("harness.parallel.map", 0.0),
        "harness.parallel.spill_s": incl.get("harness.parallel.spill", 0.0),
        "harness.parallel.retries": counts["harness.parallel.retries"],
        "trace.cache.store_s": incl.get("trace.cache.store", 0.0),
        "trace.cache.load_s": incl.get("trace.cache.load", 0.0),
        "trace.cache.hits": hits,
        "trace.cache.misses": loads - hits,
        "trace.cache.hit_ratio": hits / loads if loads else 0.0,
        "simpoint.fingerprint_s": incl.get("simpoint.fingerprint", 0.0),
        "simpoint.cluster_s": incl.get("simpoint.cluster", 0.0),
        "simpoint.replay_s": incl.get("simpoint.replay", 0.0),
        "simpoint.representatives": counts["simpoint.representatives"],
        "simpoint.emulated_fraction": (
            counts["simpoint.emulated_accesses"] / counts["simpoint.stream_accesses"]
            if counts["simpoint.stream_accesses"] else 0.0
        ),
        "simpoint.mpki_max_rel_err": 0.0,
        "reuse.olken.busy_s": incl.get("reuse.olken.stack_distances", 0.0)
        + incl.get("reuse.olken.previous_occurrences", 0.0),
        "reuse.olken.accesses": counts["reuse.olken.accesses"],
        "serve.queue_wait_ms_p50": 0.0,
        "serve.queue_wait_ms_p95": 0.0,
        "serve.run_ms_p50": 0.0,
        "serve.passes": 0,
        "serve.jobs_per_pass": 0.0,
        "serve.dedup_hits": 0,
        "serve.refused": 0,
        "serve.generator_lag_ms_max": 0.0,
        "bench.wall_s": root.duration,
        "bench.untraced_wall_s": untraced.wall_s,
        "bench.tracing_overhead_s": root.duration - untraced.wall_s,
        "bench.reconcile_gap_s": gap,
    }
    values.update(run.layer)
    for name in wanted:
        if name.endswith(".self_s"):
            values[name] = selfs.get(name[: -len(".self_s")], 0.0)
    if abs(gap) > RECONCILE_BOUND * root.duration + 1e-3:
        run.outcomes.fail(
            f"self times sum to {root.duration + gap:.4f}s, wall {root.duration:.4f}s"
        )
    lines = [
        f"{name} = {values[name]:.6g}"
        for name in sorted(values)
    ]
    lines.append(
        f"reconcile: self times {root.duration + gap:.4f}s vs traced wall "
        f"{root.duration:.4f}s (gap {gap:+.2e}s); tracing overhead "
        f"{root.duration - untraced.wall_s:+.4f}s over {untraced.wall_s:.4f}s untraced "
        f"({run.passes} passes)"
    )
    return run, values, "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / "perfbench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    try:
        from perfbench.metrics import render_row
        from perfbench.workloads import WORKLOADS

        import_s = time.perf_counter() - _PROCESS_START
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        correct = True
        for name in names:
            workload = WORKLOADS[name]
            wanted = spec["per_layer" if args.trace else "end_to_end"]
            if args.trace:
                run, values, report = per_layer(
                    workload, args.seed, args.seconds, workdir, [m["name"] for m in wanted]
                )
            else:
                run, values, samples, extra = end_to_end(
                    workload, args.seed, args.seconds, workdir, import_seconds(import_s)
                )
            missing = [m["name"] for m in wanted if m["name"] not in values]
            if missing:
                raise SystemExit(f"metrics not computed: {', '.join(missing)}")
            if not args.trace:
                report = render_row(
                    name,
                    {m["name"]: (values[m["name"]], m["unit"]) for m in wanted},
                    samples,
                    extra,
                )
            print(report)
            for note in run.outcomes.notes:
                print(f"{name}: {note}", file=sys.stderr)
            correct = correct and run.outcomes.errors == 0
        if args.workload == "all":
            return 0 if correct else 1
        result = {
            "correct": correct,
            "attempted": run.outcomes.attempted,
            "failed": run.outcomes.errors,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
