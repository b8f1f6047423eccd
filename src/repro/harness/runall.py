"""Run every experiment and print the full paper-versus-measured report.

``repro-runall`` regenerates Table 1, Table 2, and Figures 4-8 in
sequence — the exact content EXPERIMENTS.md records.  ``--extended``
adds the repository's own studies (the 128-core projection, the model
ablations, the bandwidth demand table); ``--csv DIR`` also writes every
exhibit as CSV for downstream analysis.

The run is a report: each exhibit's ``main()`` runs in this process,
one after another, with no sweep supervisor around it.  The exhibits
are closed-form model points plus a few short replays, so a run ends
in about a second, with nothing worth fanning out or resuming.  Worker
pools, journals, harness fault injection and the time and memory
budgets belong to ``repro-cosim``, whose sweeps run
long enough to need them.
"""

from __future__ import annotations

import argparse
import inspect
import os

from repro.audit import AUDIT_ENV, AUDIT_MODES
from repro.exit_codes import EXIT_OK
from repro.governor.budget import ResourceBudget, active_governor
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
    add_run_arguments,
    open_trace_cache,
    run_cli,
)
from repro.telemetry import runtime as telemetry
from repro.units import parse_size

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
    parser.add_argument(
        "--audit",
        choices=sorted(AUDIT_MODES),
        default=None,
        help="end-of-run invariant audit for every co-simulated point "
        "(delivered via $REPRO_AUDIT so the exhibit harnesses need no "
        "new parameters; default: $REPRO_AUDIT, else off)",
    )
    add_run_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Regenerate every exhibit (optionally extended studies + CSV)."""
    args = build_parser().parse_args(argv)
    disk_quota = parse_size(args.disk_quota) if args.disk_quota else None
    return run_cli(_run, args, ResourceBudget(disk_quota=disk_quota))


def _run(args: argparse.Namespace) -> int:
    """The evaluation itself, with telemetry configured (or disabled)."""
    trace_cache = open_trace_cache(args)
    sample_spec = None
    if args.sample is not None:
        from repro.simpoint import parse_sample_spec

        sample_spec = parse_sample_spec(args.sample)
    exhibits = PAPER_EXHIBITS + (EXTENDED_EXHIBITS if args.extended else ())
    if args.audit is not None:
        # The exhibit harnesses take no audit parameter; the environment
        # knob reaches every replay()/run() call without touching their
        # signatures.
        os.environ[AUDIT_ENV] = args.audit
    with telemetry.span("run"):
        for exhibit in exhibits:
            kwargs: dict[str, object] = {}
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
            with telemetry.span(exhibit.__name__.rsplit(".", 1)[-1]):
                exhibit.main(**kwargs)
            print()
    governor = active_governor()
    if governor is not None and governor.counts:
        print(f"governor events: {governor.describe()}")
    if args.csv:
        from repro.harness.export import export_all

        for path in export_all(args.csv):
            print(f"wrote {path}")
    # The exhibits print their own tables, so the profile has no result
    # list to reconcile: its value here is the per-exhibit breakdown.
    _emit_telemetry(args, [])
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
