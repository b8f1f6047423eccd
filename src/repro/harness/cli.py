"""``repro-cosim``: run one co-simulation from the command line.

The operator's front door to the platform: pick a workload, a core
count, a Dragonhead configuration, and a trace source, and get the
instruction-synchronized cache statistics plus the phase analysis —
the same readout the paper's host computer produced.

Runs go through the multi-config replay engine
(:mod:`repro.harness.replay`): the simulator side executes once and the
captured log is replayed per configuration, so ``--cache`` accepts a
comma-separated sweep (``--cache 1MB,4MB,16MB``) that costs one
generation pass.  With ``--trace-cache DIR`` (or the
``REPRO_TRACE_CACHE`` environment variable) the captured log persists
across invocations: a warm second run performs zero trace generation,
which the printed ``trace cache:`` counter line makes observable.

``--sample INTERVAL[,MAXK]`` switches the sweep to sampled simulation
(:mod:`repro.simpoint`): the captured stream is sliced into
INTERVAL-access intervals, fingerprinted, clustered, and only one
representative per cluster is emulated — orders of magnitude faster on
long traces, reported with per-metric error bars and a ``[sampled]``
label.  ``--repeats N`` stretches the generated trace N× (each thread's
trace replayed back to back), the long-stream knob sampled runs are
built for.

Examples::

    repro-cosim --workload FIMI --cores 4 --cache 4MB
    repro-cosim --workload FIMI --cores 4 --cache 1MB,4MB,16MB,64MB \\
                --trace-cache ~/.cache/repro-traces --jobs 4
    repro-cosim --workload SHOT --cores 8 --cache 2MB --line 256 \\
                --source synthetic --accesses 50000 --scale 0.0625
    repro-cosim --workload FIMI --cores 4 --cache 1MB,4MB --source synthetic \\
                --accesses 262144 --repeats 16 --sample 64k,6
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import AbstractContextManager
from fractions import Fraction
from typing import Callable

from repro.audit import AUDIT_MODES, AUDIT_OFF, resolve_audit_mode
from repro.core.phases import phase_summary
from repro.errors import (
    AuditError,
    DeadlineExpired,
    JobSpecError,
    SweepInterrupted,
    SweepPointError,
)
from repro.exit_codes import (
    EXIT_AUDIT,
    EXIT_DEADLINE,
    EXIT_DEGRADED,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_SWEEP,
)
from repro.faults.report import merge_records
from repro.faults.spec import FaultSpec, parse_fault_spec
from repro.governor.budget import ResourceBudget, active_governor, govern
# Loaded with the CLI rather than by the first JobSpec.run, which runs
# inside the ``run`` span: the profile's phases must cover that span,
# and the engine's import is not a phase.
from repro.harness import replay  # noqa: F401
from repro.harness.report import (
    render_audit_report,
    render_degradation_report,
    render_series_table,
)
from repro.harness.executors.ledger import FabricLedger
from repro.harness.supervisor import SupervisorContext, SupervisorPolicy, supervise
from repro.serve.jobspec import JobSpec, result_digest
from repro.telemetry import profile as profiling
from repro.telemetry import runtime as telemetry
from repro.telemetry.sinks import write_prometheus
from repro.trace.cache import TraceCache, resolve_trace_cache
from repro.units import format_size, parse_size
from repro.workloads.profiles import WORKLOAD_NAMES
from repro.workloads.registry import get_workload


def build_parser() -> argparse.ArgumentParser:
    """The repro-cosim argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cosim",
        description="Co-simulate a data-mining workload on the "
        "SoftSDV+Dragonhead platform model.",
    )
    parser.add_argument(
        "--workload", choices=list(WORKLOAD_NAMES), help="workload name"
    )
    parser.add_argument(
        "--job",
        metavar="FILE",
        default=None,
        help="read the job spec from FILE as canonical JSON ('-' reads "
        "stdin) — the same content-keyed format repro-serve accepts; "
        "a spec flag (--workload, --cores, --cache, ...) set beside it "
        "is an error",
    )
    parser.add_argument(
        "--print-job",
        action="store_true",
        help="print the run's canonical job spec (JSON) and content key "
        "instead of running it",
    )
    parser.add_argument(
        "--digest",
        action="store_true",
        help="print the job-result digest (SHA-256 of the pickled result "
        "list) after the readout — byte-comparable with a served job's",
    )
    parser.add_argument("--cores", type=int, default=4, help="virtual cores (1-64)")
    parser.add_argument(
        "--cache",
        default="4MB",
        help="Dragonhead LLC size (1MB-256MB), e.g. 32MB; a comma-"
        "separated list sweeps every size over one captured trace",
    )
    parser.add_argument(
        "--line", type=int, default=64, help="cache line size in bytes (64-4096)"
    )
    parser.add_argument(
        "--source",
        choices=("kernel", "synthetic"),
        default="kernel",
        help="trace source: instrumented mining kernel or model-shaped synthetic",
    )
    parser.add_argument(
        "--accesses", type=int, default=65536, help="synthetic accesses per thread"
    )
    parser.add_argument(
        "--scale",
        type=Fraction,
        default=Fraction(1, 256),
        help="synthetic footprint scale, e.g. 1/256 or 0.00390625",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        metavar="N",
        help="replay each thread's generated trace N times back to back "
        "(long-stream scaling for sampled runs; default: 1)",
    )
    parser.add_argument(
        "--sample",
        metavar="INTERVAL[,MAXK]",
        default=None,
        help="sampled simulation: slice the stream into INTERVAL-access "
        "intervals (k/m suffixes allowed), cluster their fingerprints "
        "into at most MAXK clusters (default 8), and emulate only the "
        "representatives; results carry error bars and a [sampled] label",
    )
    parser.add_argument("--quantum", type=int, default=4096, help="DEX slice quantum")
    parser.add_argument(
        "--phases", action="store_true", help="print the phase analysis of the run"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict",
        dest="lenient",
        action="store_false",
        help="raise on any protocol anomaly (the default)",
    )
    mode.add_argument(
        "--lenient",
        dest="lenient",
        action="store_true",
        help="resynchronize on protocol anomalies instead of raising; "
        "recovered anomalies appear in the degradation report",
    )
    parser.set_defaults(lenient=False)
    parser.add_argument(
        "--inject",
        metavar="FAULTSPEC",
        default=None,
        help="deterministic fault injection, e.g. "
        "'seed=42,drop-data=0.001,miss-window=0.05' "
        "(see docs/architecture.md for the channel taxonomy)",
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="record completed sweep points to FILE (JSONL)",
    )
    parser.add_argument(
        "--audit",
        choices=sorted(AUDIT_MODES),
        default=None,
        help="end-of-run invariant audit: 'sample' checks conservation, "
        "cross-domain, and a 1-in-64 LRU differential oracle; 'full' "
        "oracles every set (default: $REPRO_AUDIT, else off)",
    )
    parser.add_argument(
        "--fail-on-degraded",
        action="store_true",
        help="exit nonzero if any result carries degradation records "
        "(injected faults, recovered anomalies, or lenient-mode audit "
        "violations)",
    )
    add_run_arguments(parser)
    add_worker_arguments(parser)
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip points already recorded in the --journal file; a "
        "sweep drained by Ctrl-C or --deadline keeps its completed "
        "points there, and --resume finishes it byte-identically",
    )
    return parser


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags all three CLIs take, defined once.

    The trace cache, its disk quota and telemetry mean the same in
    ``repro-cosim``, ``repro-runall`` and ``repro-serve``.
    """
    parser.add_argument(
        "--trace-cache",
        metavar="DIR",
        default=None,
        help="persist captured traces under DIR and reuse them across "
        "invocations (default: $REPRO_TRACE_CACHE; 'off' disables)",
    )
    parser.add_argument(
        "--disk-quota",
        metavar="SIZE",
        default=None,
        help="bytes the trace cache may occupy, e.g. 512MB; over quota "
        "the least-recently-used cached traces are evicted (they "
        "regenerate on demand)",
    )
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const=True,
        default=False,
        metavar="EVENTS.jsonl",
        help="enable the telemetry subsystem (spans, metric registry, "
        "live 500µs-window stream); with a path, also log every metric "
        "and span to EVENTS.jsonl.  Off by default — telemetry-off runs "
        "are byte-identical to builds without the subsystem",
    )
    parser.add_argument(
        "--metrics-file",
        metavar="FILE",
        default=None,
        help="write the final registry state to FILE in Prometheus text "
        "exposition format (atomic replace; implies --telemetry)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=True,
        default=False,
        metavar="FILE",
        help="print the end-of-run profile (per-phase wall time, "
        "accesses/sec, trace-cache hit rate, supervisor events); with a "
        "path, also write it as JSON (implies --telemetry)",
    )


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of the two CLIs that run replay points on workers.

    Workers, per-point supervision and the run's time and memory
    budget mean the same in ``repro-cosim`` and ``repro-serve``.
    """
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per sweep or replay pass (default: "
        "serial; 0 means one per CPU); results are byte-identical to a "
        "serial run",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock budget for sweep and replay-pass "
        "workers (needs --jobs > 1 to be enforceable)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="re-runs granted to a failing sweep point (default: 2)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run-level wall-clock budget; expiry drains the run like "
        "Ctrl-C and exits 124",
    )
    parser.add_argument(
        "--mem-budget",
        metavar="SIZE",
        default=None,
        help="process maxrss high-water mark, e.g. 2GB; once breached, "
        "supervised maps clamp to serial execution and the breach is "
        "recorded as degradation",
    )


def telemetry_requested(args: argparse.Namespace) -> bool:
    """Whether any of the three telemetry flags turns the subsystem on."""
    return bool(args.telemetry) or bool(args.metrics_file) or bool(args.profile)


def build_budget(args: argparse.Namespace) -> ResourceBudget | None:
    """The resource budget from ``--disk-quota`` and the worker flags.

    None when no axis is set.
    """
    disk = parse_size(args.disk_quota) if args.disk_quota else None
    mem = parse_size(args.mem_budget) if args.mem_budget else None
    if disk is None and mem is None and args.deadline is None:
        return None
    return ResourceBudget(disk_quota=disk, mem_budget=mem, deadline_s=args.deadline)


def open_trace_cache(args: argparse.Namespace) -> TraceCache | None:
    """The run's trace cache (``--trace-cache``, ``--disk-quota``).

    Opening it does the run-start housekeeping: aged crash debris
    (quarantined ``.corrupt`` entries and orphaned staging directories
    — threshold ``$REPRO_GC_AGE_S``, default a week) is collected and,
    when a quota is set, the cache is evicted down to it before the run
    adds new entries.
    """
    trace_cache = resolve_trace_cache(
        args.trace_cache,
        disk_quota=parse_size(args.disk_quota) if args.disk_quota else None,
    )
    if trace_cache is None:
        return None
    from repro.governor import gc as governor_gc

    governor_gc.collect_garbage(trace_cache)
    if trace_cache.disk_quota is not None:
        governor_gc.enforce_quota(trace_cache, trace_cache.disk_quota)
    return trace_cache


def sweep_session(
    args: argparse.Namespace, fault_spec: FaultSpec | None = None
) -> AbstractContextManager[SupervisorContext]:
    """The supervised sweep ``repro-cosim`` runs in.

    The journal at ``--journal``, resumed under ``--resume``, records
    every completed point.
    """
    journal = FabricLedger(args.journal, resume=args.resume) if args.journal else None
    return supervise(
        SupervisorPolicy(timeout=args.timeout, retries=args.retries),
        journal=journal,
        fault_spec=fault_spec,
    )


def run_cli(
    body: Callable[[argparse.Namespace], int],
    args: argparse.Namespace,
    budget: ResourceBudget | None,
) -> int:
    """Run one CLI invocation inside the lifecycle all three CLIs share.

    Telemetry is configured around the resource governor of
    ``budget``, ``body`` does the work, and a sweep that stops early
    leaves with its documented exit code, reported on stderr: a
    deadline drain 124, an interrupt 130, a strict-mode audit violation
    3 (bare, or as the cause of a failed point), and any other point
    out of retries 5.
    """
    telemetry_on = telemetry_requested(args)
    if telemetry_on:
        telemetry.configure(
            events_path=args.telemetry if isinstance(args.telemetry, str) else None
        )
    try:
        with govern(budget):
            return body(args)
    except DeadlineExpired as expired:
        # Before SweepInterrupted (its parent class): the drain is
        # identical but the exit code follows timeout(1).
        print(f"deadline: {expired}", file=sys.stderr)
        return EXIT_DEADLINE
    except SweepInterrupted as interrupted:
        print(f"interrupted: {interrupted}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except AuditError as error:
        # A violated invariant is a wrong answer, not a statistic.
        print(f"audit failed: {error}", file=sys.stderr)
        print(error.report.describe(), file=sys.stderr)
        return EXIT_AUDIT
    except SweepPointError as error:
        if isinstance(error.cause, AuditError):
            # Deterministic, so the retries could not save it.
            print(
                f"audit failed on point {error.point!r}: {error.cause}",
                file=sys.stderr,
            )
            print(error.cause.report.describe(), file=sys.stderr)
            return EXIT_AUDIT
        print(f"sweep point failed: {error}", file=sys.stderr)
        return EXIT_SWEEP
    finally:
        if telemetry_on:
            telemetry.shutdown()


def _emit_telemetry(args: argparse.Namespace, results) -> None:
    """Write the metrics file and the profile, after the root span closed.

    Ordered after the ``run`` span closes so the profile's phase-coverage
    check sees the final root wall time; everything here is gated on the
    subsystem being enabled, preserving telemetry-off byte-identity.
    """
    if not telemetry.enabled():
        return
    registry = telemetry.registry()
    if args.profile:
        profile = profiling.build_profile(results, telemetry.tracker(), registry)
        print()
        print(profiling.render_profile(profile))
        if isinstance(args.profile, str):
            profiling.write_profile(profile, args.profile)
    if args.metrics_file:
        write_prometheus(registry, args.metrics_file)


def main(argv: list[str] | None = None) -> int:
    """Run one co-simulation (or a cache-size sweep) and print its readout."""
    args = build_parser().parse_args(argv)
    return run_cli(_main, args, build_budget(args))


def _resolve_spec(args: argparse.Namespace) -> JobSpec:
    """The canonical :class:`JobSpec` this invocation describes.

    Either parsed from ``--job FILE`` (the format ``repro-serve``
    accepts over HTTP) or built from the flag namespace — both land on
    the same validated, content-keyed model, so a flag combination and
    its spec file run byte-identical simulations.  Malformed specs are
    argument errors: they exit 2 through the parser, never as
    tracebacks.
    """
    parser = build_parser()
    if args.job is not None:
        # Every spec field is a flag of the same name; one set beside
        # --job would be silently overridden by the file.
        given = [
            f"--{field.name}"
            for field in dataclasses.fields(JobSpec)
            if getattr(args, field.name) != parser.get_default(field.name)
        ]
        if given:
            parser.error(f"--job cannot be combined with {', '.join(given)}")
        try:
            if args.job == "-":
                raw = sys.stdin.read()
            else:
                with open(args.job, "r", encoding="utf-8") as handle:
                    raw = handle.read()
            payload = json.loads(raw)
        except (OSError, ValueError) as error:
            parser.error(f"--job {args.job}: {error}")
        try:
            return JobSpec.from_json(payload)
        except JobSpecError as error:
            parser.error(str(error))
    if args.workload is None:
        parser.error("one of --workload or --job is required")
    try:
        return JobSpec.from_cli_args(args)
    except JobSpecError as error:
        parser.error(str(error))


def _main(args: argparse.Namespace) -> int:
    """The run itself, with telemetry configured (or left disabled)."""
    spec = _resolve_spec(args)
    # Reporting and the sampled path read the scalar knobs off the
    # namespace; a --job run must see the file's values there, and a
    # flag run sees its own values round-tripped through the spec.
    args.workload = spec.workload
    args.cores = spec.cores
    args.line = spec.line
    args.quantum = spec.quantum
    args.sample = spec.sample
    args.inject = spec.inject
    args.lenient = spec.lenient
    args.audit = spec.audit
    if args.print_job:
        print(json.dumps(spec.to_json(), indent=2, sort_keys=True))
        print(f"content key: {spec.content_key()}")
        return EXIT_OK
    workload = get_workload(spec.workload)
    configs = spec.configs()
    trace_cache = open_trace_cache(args)
    fault_spec = parse_fault_spec(args.inject)
    if args.resume and not args.journal:
        build_parser().error("--resume requires --journal FILE")
    if args.sample is not None:
        return _main_sampled(args, spec, workload, configs, trace_cache)

    if fault_spec is not None and fault_spec.corrupt_trace and trace_cache is not None:
        from repro.faults.injector import inject_trace_corruption

        key = spec.capture_key()
        damaged = sum(
            inject_trace_corruption(trace_cache, key, fault_spec.rng("corrupt-trace", i))
            for i in range(fault_spec.corrupt_trace)
        )
        if damaged:
            print(f"injected trace corruption into {damaged} cache entry file(s)")

    audit_mode = resolve_audit_mode(args.audit)
    with telemetry.span("run"):
        with sweep_session(args, fault_spec) as ctx:
            results = spec.run(trace_cache=trace_cache, jobs=args.jobs)
        exit_code = _report(args, workload, configs, results, trace_cache, audit_mode, fault_spec, ctx)
        if args.digest:
            print(f"result digest: {result_digest(results)}")
    _emit_telemetry(args, results)
    return exit_code


#: Flags the sampled path cannot honour: journaling and phase analysis
#: assume the full stream goes through the emulator.  The job spec
#: itself refuses --inject, --lenient and --audit with --sample, and
#: --resume needs --journal.
_SAMPLE_CONFLICTS = (
    ("--journal", "journal"),
    ("--phases", "phases"),
)


def _main_sampled(args, spec, workload, configs, trace_cache) -> int:
    """The ``--sample`` path: capture (or load) once, sample the sweep."""
    for flag, attribute in _SAMPLE_CONFLICTS:
        if getattr(args, attribute):
            build_parser().error(f"--sample cannot be combined with {flag}")
    with telemetry.span("run"):
        results = spec.run(trace_cache=trace_cache, jobs=args.jobs)
        exit_code = _report_sampled(args, workload, configs, results, trace_cache)
        if args.digest:
            print(f"result digest: {result_digest(results)}")
    _emit_telemetry(args, [])
    return exit_code


def _report_sampled(args, workload, configs, results, trace_cache) -> int:
    """Print the sampled-run readout; returns the process exit code."""
    with telemetry.span("report"):
        print(f"{workload.name} on {args.cores} cores — {workload.description}")
        coverage = results[0].coverage
        print(
            f"Sampled simulation: {coverage.intervals} intervals × "
            f"{coverage.interval_size:,} accesses, {coverage.clusters} "
            f"cluster(s), {coverage.simulated_fraction:.1%} of the stream "
            "emulated"
        )
        print(
            render_series_table(
                "LLC size",
                [format_size(config.cache_size) for config in configs],
                {workload.name: [result.mpki.value for result in results]},
                title=f"LLC MPKI ({args.line}B lines, one captured trace)",
                errors={workload.name: [result.mpki.error for result in results]},
                sampled=True,
            )
        )
        for config, result in zip(configs, results):
            print(
                f"  {format_size(config.cache_size):>10}: "
                f"misses {format(result.misses, ',.0f')}, "
                f"miss ratio {format(result.miss_ratio, '.4f')}"
            )
        if trace_cache is not None:
            print(
                f"  trace cache          : {trace_cache.stats.describe()} "
                f"({trace_cache.root})"
            )
    return EXIT_OK


def _report(
    args, workload, configs, results, trace_cache, audit_mode, fault_spec, ctx
) -> int:
    """Print the run readout; returns the process exit code."""
    with telemetry.span("report"):
        if telemetry.enabled():
            # Workers do not share this registry: result aggregates and
            # degradation counters are published here, parent-side.
            profiling.publish_results(telemetry.registry(), results)
        print(f"{workload.name} on {args.cores} cores — {workload.description}")
        if len(results) == 1:
            result, config = results[0], configs[0]
            print(f"Dragonhead: {format_size(config.cache_size)}, {config.line_size}B lines")
            print(f"  instructions retired : {result.instructions:,}")
            print(f"  LLC accesses         : {result.accesses:,}")
            print(f"  LLC misses           : {result.llc_stats.misses:,}")
            print(f"  LLC MPKI             : {result.mpki:.3f}")
            print(f"  miss ratio           : {result.llc_stats.miss_ratio:.4f}")
            print(f"  filtered transactions: {result.filtered:,}")
            print(f"  sampled windows      : {len(result.samples)}")
            if args.phases:
                print("\nPhase analysis (stable-MPKI segments):")
                for phase, representative in phase_summary(result.samples):
                    print(
                        f"  phase {phase.index}: windows "
                        f"[{phase.start_window}, {phase.end_window}) "
                        f"mean MPKI {phase.mean_mpki:.2f}, "
                        f"representative window {representative}"
                    )
        else:
            print(
                f"Cache-size sweep ({len(results)} configurations, "
                f"{args.line}B lines, one captured trace):"
            )
            print(f"  {'LLC size':>10}  {'misses':>10}  {'LLC MPKI':>9}  {'miss ratio':>10}")
            for config, result in zip(configs, results):
                print(
                    f"  {format_size(config.cache_size):>10}"
                    f"  {result.llc_stats.misses:>10,}"
                    f"  {result.mpki:>9.3f}"
                    f"  {result.llc_stats.miss_ratio:>10.4f}"
                )
        if trace_cache is not None:
            print(f"  trace cache          : {trace_cache.stats.describe()} ({trace_cache.root})")
        if audit_mode != AUDIT_OFF:
            print()
            print(render_audit_report(results))
        governor = active_governor()
        governor_records = tuple(governor.records) if governor is not None else ()
        if fault_spec is not None or args.lenient or governor_records:
            merged = merge_records(
                *(result.degradation for result in results), governor_records
            )
            print()
            print(render_degradation_report(merged))
        if ctx.counts:
            # Noteworthy only: empty on a clean un-resumed run, so the
            # byte-identical serial-vs-parallel contract is undisturbed.
            print(f"supervisor events: {ctx.describe()}")
        if governor is not None and governor.counts:
            # Only under an explicit budget, and only when one fired —
            # budget-free runs print exactly what they always printed.
            print(f"governor events: {governor.describe()}")
        if args.fail_on_degraded and (
            any(result.degraded for result in results)
            or governor_records
        ):
            print("failing: degradation records present (--fail-on-degraded)")
            return EXIT_DEGRADED
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
