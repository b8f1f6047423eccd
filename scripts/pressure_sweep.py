#!/usr/bin/env python
"""Pressure-test the resource governor: full disks, tiny quotas, deadlines.

The governor's claim: put the platform under resource pressure — a
trace-cache quota smaller than the working set, injected ENOSPC/EIO at
the write sites, a wall-clock deadline that expires mid-sweep — and
the run degrades *gracefully* while producing
results byte-identical to an unpressured run.  This script is that
claim's executable proof, and what the CI ``pressure-smoke`` job runs.

Default mode (quota pressure):

1. run a multi-workload co-simulation sweep with an uncapped trace
   cache — the ground truth, and the measure of the working set;
2. run the identical sweep against a fresh cache capped at roughly two
   entries' worth of bytes, with a seeded filesystem fault shim
   injecting ENOSPC and EIO into the cache's store path;
3. fail unless (a) the sweep completed, (b) the quota forced at least
   one LRU eviction, (c) at least one injected fault was delivered
   (and survived — evict-and-retry for ENOSPC, backoff for EIO), and
   (d) the results are byte-identical to the uncapped baseline.

``--deadline-smoke`` proves the time axis: a sweep with a deadline
that expires mid-run must drain like Ctrl-C — partial results, every
completed point journaled — and a ``--resume`` run must finish the
sweep byte-identically to an undisturbed serial baseline.

Exit codes: 0 success; 1 a governance guarantee was violated; 2 bad
configuration.

Usage::

    python scripts/pressure_sweep.py                  # quota + faults
    python scripts/pressure_sweep.py --workloads 8 --seed 3
    python scripts/pressure_sweep.py --deadline-smoke
"""

from __future__ import annotations

import argparse
import pickle
import sys
import tempfile
from pathlib import Path

# Runnable straight from a checkout: scripts/ sits next to src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cache.emulator import DragonheadConfig  # noqa: E402
from repro.errors import DeadlineExpired  # noqa: E402
from repro.governor import fsshim  # noqa: E402
from repro.governor import gc as governor_gc  # noqa: E402
from repro.governor.budget import ResourceBudget, govern  # noqa: E402
from repro.harness.executors import tasks  # noqa: E402
from repro.harness.executors.ledger import FabricLedger  # noqa: E402
from repro.harness.replay import replay_sweep  # noqa: E402
from repro.harness.supervisor import (  # noqa: E402
    SupervisorContext,
    SupervisorPolicy,
    supervise,
    supervised_map,
)
from repro.trace.cache import TraceCache  # noqa: E402
from repro.workloads.registry import WORKLOAD_NAMES, get_workload  # noqa: E402


def run_grid(
    workloads: list[str], cache: TraceCache | None, accesses: int
) -> list:
    """The sweep both runs share: one capture + two replays per workload."""
    configs = [
        DragonheadConfig(cache_size=1 << 21, line_size=64),
        DragonheadConfig(cache_size=1 << 23, line_size=64),
    ]
    results = []
    for name in workloads:
        guest = get_workload(name).synthetic_guest(accesses_per_thread=accesses)
        results.extend(
            replay_sweep(
                guest,
                2,
                configs,
                trace_cache=cache,
                key_extra={"source": "synthetic", "accesses": accesses},
            )
        )
    return results


def project(results: list) -> bytes:
    """The byte-identity projection: every number the readout prints."""
    return pickle.dumps(
        [
            (
                r.instructions,
                r.accesses,
                r.llc_stats.misses,
                r.mpki,
                r.llc_stats.miss_ratio,
                r.filtered,
            )
            for r in results
        ],
        protocol=4,
    )


def run_pressure(args: argparse.Namespace) -> int:
    names = [WORKLOAD_NAMES[i % len(WORKLOAD_NAMES)] for i in range(args.workloads)]
    print(
        f"pressure sweep: {len(names)} workloads x 2 configs, "
        f"seed={args.seed}, enospc={args.enospc}, eio={args.eio}"
    )
    with tempfile.TemporaryDirectory(prefix="repro-pressure-") as tmp:
        # 1. Uncapped baseline: ground truth plus working-set measure.
        print("uncapped baseline ...")
        baseline_cache = TraceCache(Path(tmp) / "uncapped")
        baseline = project(run_grid(names, baseline_cache, args.accesses))
        entries = governor_gc.scan_entries(baseline_cache)
        if len(entries) < 3:
            print("bad configuration: need >= 3 cache entries to pressure")
            return 2
        total = sum(e.bytes for e in entries)
        quota = 2 * max(e.bytes for e in entries)
        print(
            f"  working set: {len(entries)} entries, {total} bytes; "
            f"quota for the pressure run: {quota} bytes"
        )
        if quota >= total:
            print("bad configuration: quota does not undercut the working set")
            return 2

        # 2. The same sweep under a tiny quota with injected faults.
        print("pressure run (tiny quota + injected ENOSPC/EIO) ...")
        fsshim.install(
            fsshim.FsFaultPlan(
                seed=args.seed,
                enospc=args.enospc,
                eio=args.eio,
                limit=args.fault_limit,
                sites=frozenset({"trace-cache.store"}),
            )
        )
        try:
            capped_cache = TraceCache(Path(tmp) / "capped", disk_quota=quota)
            with govern(ResourceBudget(disk_quota=quota)) as governor:
                pressured = project(run_grid(names, capped_cache, args.accesses))
            delivered = fsshim.delivered()
        finally:
            fsshim.uninstall()

        stats = capped_cache.stats
        print(f"  trace cache: {stats.describe()}")
        print(
            f"  faults delivered: {len(delivered)} "
            f"({', '.join(kind for _, kind in delivered) or 'none'})"
        )
        if governor is not None and governor.counts:
            print(f"  governor events: {governor.describe()}")

        failures = []
        if stats.evictions < 1:
            failures.append("the quota never forced an eviction")
        if len(delivered) < 1:
            failures.append(
                "no filesystem fault was delivered — the shim proved nothing; "
                "raise --enospc/--eio or change --seed"
            )
        if capped_cache.off:
            failures.append(
                "the cache latched off — the quota left nothing to evict; "
                "the degradation worked but the eviction path went unproven"
            )
        _, usage = governor_gc.cache_usage(capped_cache)
        if usage > quota:
            failures.append(f"final usage {usage} bytes still exceeds quota {quota}")
        if pressured != baseline:
            failures.append("results differ from the uncapped baseline")

    if failures:
        for problem in failures:
            print(f"FAIL: {problem}")
        return 1
    print(
        f"OK: sweep under a {quota}-byte quota completed with "
        f"{stats.evictions} eviction(s), survived {len(delivered)} injected "
        f"fault(s) ({stats.enospc} ENOSPC), and stayed byte-identical to "
        "the uncapped baseline"
    )
    return 0


def run_deadline_smoke(args: argparse.Namespace) -> int:
    """Deadline mid-sweep: drain + journal, then resume to identity."""
    grid = [
        (WORKLOAD_NAMES[i % len(WORKLOAD_NAMES)], 2, 1 << (20 + i % 3), 64)
        for i in range(args.points)
    ]
    task = tasks.slow_mpki_point
    print(f"deadline smoke: {args.points} points of ~100 ms each, "
          f"deadline={args.deadline}s")

    print("serial baseline ...")
    baseline = supervised_map(task, grid, context=SupervisorContext())

    with tempfile.TemporaryDirectory(prefix="repro-deadline-") as tmp:
        journal_path = Path(tmp) / "journal.jsonl"
        expired: DeadlineExpired | None = None
        with govern(ResourceBudget(deadline_s=args.deadline)):
            journal = FabricLedger(journal_path)
            try:
                with supervise(SupervisorPolicy(), journal=journal):
                    supervised_map(task, grid)
            except DeadlineExpired as error:
                expired = error

        failures = []
        if expired is None:
            failures.append(
                "the deadline never expired — the sweep finished first; "
                "raise --points or lower --deadline"
            )
        elif not 0 < expired.completed < expired.total:
            failures.append(
                f"expiry at {expired.completed}/{expired.total} points proves "
                "nothing — need a genuine mid-sweep drain"
            )
        else:
            print(f"  drained at {expired.completed}/{expired.total} points")
            print("resume run ...")
            journal = FabricLedger(journal_path, resume=True)
            with supervise(SupervisorPolicy(), journal=journal) as context:
                resumed = supervised_map(task, grid)
            skips = context.counts.get("journal-skip", 0)
            if skips != expired.completed:
                failures.append(
                    f"resume skipped {skips} points but the drain had "
                    f"journaled {expired.completed}"
                )
            if pickle.dumps(resumed, protocol=4) != pickle.dumps(
                baseline, protocol=4
            ):
                failures.append("resumed results differ from the serial baseline")

    if failures:
        for problem in failures:
            print(f"FAIL: {problem}")
        return 1
    print(
        f"OK: deadline drained the sweep at {expired.completed}/"
        f"{expired.total} points and --resume finished it byte-identical "
        "to the serial baseline"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pressure_sweep",
        description="Prove the resource governor degrades gracefully "
        "under disk and time pressure.",
    )
    parser.add_argument("--workloads", type=int, default=6,
                        help="workloads in the quota sweep (default: 6)")
    parser.add_argument("--accesses", type=int, default=4096,
                        help="synthetic accesses per thread (default: 4096)")
    parser.add_argument("--seed", type=int, default=42,
                        help="fault-shim decision seed (default: 42)")
    parser.add_argument("--enospc", type=float, default=0.25,
                        help="per-store ENOSPC probability (default: 0.25)")
    parser.add_argument("--eio", type=float, default=0.25,
                        help="per-store EIO probability (default: 0.25)")
    parser.add_argument("--fault-limit", type=int, default=4,
                        help="total injected faults cap (default: 4)")
    parser.add_argument("--deadline-smoke", action="store_true",
                        help="run the deadline-drain/resume smoke instead "
                        "of the quota pressure run")
    parser.add_argument("--points", type=int, default=16,
                        help="deadline smoke: grid points (default: 16)")
    parser.add_argument("--deadline", type=float, default=0.6,
                        help="deadline smoke: run budget in seconds "
                        "(default: 0.6 — expires ~6 points into 16)")
    args = parser.parse_args(argv)
    if args.workloads < 3 or args.points < 2:
        print("bad configuration: need --workloads >= 3 and --points >= 2")
        return 2
    if args.deadline_smoke:
        return run_deadline_smoke(args)
    return run_pressure(args)


if __name__ == "__main__":
    raise SystemExit(main())
