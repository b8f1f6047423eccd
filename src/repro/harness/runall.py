"""Run every experiment and print the full paper-versus-measured report.

``repro-runall`` regenerates Table 1, Table 2, and Figures 4-8 in
sequence — the exact content EXPERIMENTS.md records.  ``--extended``
adds the repository's own studies (the 128-core projection, the model
ablations, the bandwidth demand table); ``--csv DIR`` also writes every
exhibit as CSV for downstream analysis; ``--jobs N`` fans the sweep
grids out over N worker processes (``0`` = one per CPU) with output
byte-identical to the serial run — see :mod:`repro.harness.parallel`.

Every sweep grid runs under the fault-tolerant supervisor
(:mod:`repro.harness.supervisor`): ``--timeout``/``--retries`` bound
misbehaving points, ``--journal``/``--resume`` record completed
points so a killed run restarts where it stopped, ``--inject`` plants
deterministic harness faults (worker crash/hang) to exercise the
recovery paths, and ``--lenient`` degrades gracefully — a point or
exhibit that exhausts its retries is reported and skipped instead of
aborting the whole evaluation.  Ctrl-C drains to a partial-results
report and exits 130.
"""

from __future__ import annotations

import argparse
import inspect
import os

from repro.audit import AUDIT_ENV, AUDIT_MODES
from repro.errors import SweepPointError
from repro.exit_codes import EXIT_DEGRADED, EXIT_OK
from repro.faults.spec import parse_fault_spec
from repro.governor.budget import active_governor
from repro.harness import (
    ablations,
    bandwidth_study,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    projection,
    table1,
    table2,
)
from repro.harness.cli import (
    _emit_telemetry,
    add_sweep_arguments,
    open_trace_cache,
    parse_sweep_args,
    run_cli,
    sweep_session,
)
from repro.telemetry import runtime as telemetry

PAPER_EXHIBITS = (table1, table2, fig4, fig5, fig6, fig7, fig8)
EXTENDED_EXHIBITS = (projection, ablations, bandwidth_study)


def build_parser() -> argparse.ArgumentParser:
    """The repro-runall argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-runall", description="Regenerate the paper's evaluation."
    )
    parser.add_argument(
        "--extended",
        action="store_true",
        help="also run the projection, ablation, and bandwidth studies",
    )
    parser.add_argument(
        "--csv", metavar="DIR", help="write every exhibit as CSV into DIR"
    )
    parser.add_argument(
        "--sample",
        metavar="INTERVAL[,MAXK]",
        default=None,
        help="run the co-simulated exhibits through sampled simulation "
        "(representative intervals only); their tables are labelled "
        "[sampled] and carry error bars",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict",
        dest="lenient",
        action="store_false",
        help="abort the whole run on the first failing point (default)",
    )
    mode.add_argument(
        "--lenient",
        dest="lenient",
        action="store_true",
        help="report and skip an exhibit whose sweep exhausts its "
        "retries, instead of aborting the run",
    )
    parser.set_defaults(lenient=False)
    parser.add_argument(
        "--inject",
        metavar="FAULTSPEC",
        default=None,
        help="deterministic harness fault injection for the sweeps, "
        "e.g. 'seed=7,crash=0.2,hang=0.1,hang-seconds=2'",
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="record completed sweep points to FILE "
        "(default with --resume: .repro-runall.jsonl)",
    )
    parser.add_argument(
        "--audit",
        choices=sorted(AUDIT_MODES),
        default=None,
        help="end-of-run invariant audit for every co-simulated point "
        "(delivered via $REPRO_AUDIT so the exhibit harnesses need no "
        "new parameters; default: $REPRO_AUDIT, else off)",
    )
    parser.add_argument(
        "--fail-on-degraded",
        action="store_true",
        help="exit nonzero if any exhibit or sweep point degraded "
        "instead of completing cleanly",
    )
    add_sweep_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Regenerate every exhibit (optionally extended studies + CSV)."""
    return run_cli(_run, parse_sweep_args(build_parser(), argv))


def _run(args: argparse.Namespace) -> int:
    """The evaluation itself, with telemetry configured (or disabled)."""
    trace_cache = open_trace_cache(args)
    fault_spec = parse_fault_spec(args.inject)
    sample_spec = None
    if args.sample is not None:
        from repro.simpoint import parse_sample_spec

        sample_spec = parse_sample_spec(args.sample)
    args.journal = args.journal or (".repro-runall.jsonl" if args.resume else None)
    exhibits = PAPER_EXHIBITS + (EXTENDED_EXHIBITS if args.extended else ())
    degraded: list[str] = []
    if args.audit is not None:
        # The exhibit harnesses take no audit parameter; the environment
        # knob reaches every replay()/run() call, worker processes
        # included, without touching their signatures.
        os.environ[AUDIT_ENV] = args.audit
    with telemetry.span("run"), sweep_session(args, fault_spec) as context:
        for exhibit in exhibits:
            name = exhibit.__name__.rsplit(".", 1)[-1]
            kwargs: dict[str, object] = {"jobs": args.jobs}
            # Exact-path exhibits accept the trace cache; the
            # closed-form model exhibits have nothing to cache and
            # don't take the knob.
            parameters = inspect.signature(exhibit.main).parameters
            if "trace_cache" in parameters:
                kwargs["trace_cache"] = trace_cache
            # Sampled simulation only reaches the exhibits that
            # co-simulate; the closed-form model exhibits have no
            # stream to sample and don't take the knob.
            if sample_spec is not None and "sample" in parameters:
                kwargs["sample"] = sample_spec
            try:
                with telemetry.span(name):
                    exhibit.main(**kwargs)
            except SweepPointError as error:
                # Strict mode fails the run with the point's exit code.
                if not args.lenient:
                    raise
                degraded.append(name)
                print(f"[degraded] exhibit {name} skipped: {error}")
            print()
    if context.counts:
        print(f"supervisor events: {context.describe()}")
    governor = active_governor()
    if governor is not None and governor.counts:
        print(f"governor events: {governor.describe()}")
    if degraded:
        print(f"degraded exhibits: {', '.join(degraded)}")
    if args.csv:
        from repro.harness.export import export_all

        for path in export_all(args.csv):
            print(f"wrote {path}")
    # The exhibits print their own tables, so the profile has no result
    # list to reconcile: its value here is the per-exhibit breakdown.
    _emit_telemetry(args, [])
    if args.fail_on_degraded and (
        degraded
        or context.counts.get("point-degraded")
        or (governor is not None and governor.records)
    ):
        print("failing: degraded exhibits or points present (--fail-on-degraded)")
        return EXIT_DEGRADED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
