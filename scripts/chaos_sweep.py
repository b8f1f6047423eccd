#!/usr/bin/env python
"""Chaos-test the sweep fabric: kill workers mid-sweep, demand identity.

The fabric's claim is strong — SIGKILL any worker at any instruction
and the sweep still produces the exact result list a serial run would.
This script is the claim's executable proof, and what the CI
``fabric-chaos-smoke`` job runs:

1. build a real MPKI sweep grid (``--points``, default 16) over the
   paper's eight workloads;
2. run it serially under a plain supervisor — the ground truth;
3. run it again on the shard fabric while a seeded chaos monkey
   SIGKILLs live workers (``--kills``, default 3) at pseudo-random
   driver cycles;
4. fail unless (a) every kill was delivered while the sweep was still
   running, (b) the fabric's result list is byte-identical to the
   serial one, and (c) the ledger holds exactly one ``done`` record
   per grid point — nothing lost, nothing duplicated.

``--quarantine-smoke`` runs the other half of the robustness story:
a poison point (kills every worker that touches it) must end up
``quarantined`` in the ledger — with the sweep failing on a
``SweepPointError`` caused by the quarantine — instead of eating
respawned workers forever.

Exit codes: 0 success; 1 identity or ledger-accounting violation;
2 bad configuration; 3 the kill quota could not be delivered (the
sweep finished too fast — raise ``--points`` or ``--task slow``).

Usage::

    python scripts/chaos_sweep.py                       # 16 points, 3 kills
    python scripts/chaos_sweep.py --points 24 --shards 3 --kills 4 --seed 7
    python scripts/chaos_sweep.py --quarantine-smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import signal
import sys
import tempfile
from pathlib import Path

# Runnable straight from a checkout: scripts/ sits next to src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import QuarantinedPointError, SweepPointError  # noqa: E402
from repro.faults.spec import FaultSpec  # noqa: E402
from repro.harness.executors import tasks  # noqa: E402
from repro.harness.executors.base import FabricConfig  # noqa: E402
from repro.harness.executors.ledger import FabricLedger  # noqa: E402
from repro.harness.supervisor import (  # noqa: E402
    SupervisorContext,
    SupervisorPolicy,
    point_key,
    supervise,
    supervised_map,
)
from repro.workloads.registry import WORKLOAD_NAMES  # noqa: E402

#: Task selector: the chaos default pads each point to ~100 ms so the
#: monkey's SIGKILL reliably lands while a point is *in flight*; the
#: ``cosim`` grid runs the full co-simulation pipeline (real, but warm
#: points finish in milliseconds — fine for identity, poor for chaos).
TASKS = {
    "slow": tasks.slow_mpki_point,
    "model": tasks.model_mpki_point,
    "cosim": tasks.cosim_mpki_point,
}


def build_grid(points: int) -> list[tuple[str, int, int, int]]:
    """A real sweep grid: workloads × core counts × LLC sizes."""
    grid = []
    cores = (1, 2, 4, 8)
    caches = (1 << 20, 1 << 21, 1 << 22, 1 << 23)
    i = 0
    while len(grid) < points:
        name = WORKLOAD_NAMES[i % len(WORKLOAD_NAMES)]
        grid.append(
            (name, cores[i % len(cores)], caches[(i // 3) % len(caches)], 64)
        )
        i += 1
    return grid


class ChaosMonkey:
    """Seeded SIGKILL schedule, fired from the fabric driver's observer.

    The monkey draws its cycle gaps and victim choices from the fault
    framework's scoped seed derivation (``FaultSpec.rng``), so a given
    ``--seed`` kills the same worker slots at the same driver cycles
    every run — a failing chaos run is reproducible, which is the
    whole point of seeding the chaos.
    """

    def __init__(self, seed: int, kills: int, min_gap: int = 2, max_gap: int = 8):
        self.rng = FaultSpec(seed=seed).rng("chaos-monkey")
        self.quota = kills
        self.delivered = []
        self._min_gap, self._max_gap = min_gap, max_gap
        self._next_kill = int(self.rng.integers(min_gap, max_gap + 1))

    def __call__(self, backend, cycle: int) -> None:
        if len(self.delivered) >= self.quota or cycle < self._next_kill:
            return
        pids = backend.worker_pids()
        if not pids:
            return  # between a death and its respawn; try next cycle
        victim = sorted(pids)[int(self.rng.integers(len(pids)))]
        os.kill(pids[victim], signal.SIGKILL)
        self.delivered.append(victim)
        print(f"  [monkey] cycle {cycle}: SIGKILLed {victim} (pid {pids[victim]})")
        self._next_kill = cycle + int(
            self.rng.integers(self._min_gap, self._max_gap + 1)
        )


def audit_ledger(ledger_path: Path, expected_keys: list[str]) -> list[str]:
    """Every expected key has exactly one ``done`` record; no extras."""
    done_counts: dict[str, int] = {}
    with open(ledger_path, "r", encoding="utf-8") as handle:
        for line in handle:
            try:
                row = json.loads(line)
            except ValueError:
                continue  # torn line from a SIGKILL: repaired, skipped
            if isinstance(row, dict) and row.get("type") == "done":
                done_counts[row["key"]] = done_counts.get(row["key"], 0) + 1
    problems = []
    for key in expected_keys:
        n = done_counts.pop(key, 0)
        if n != 1:
            problems.append(f"key {key[:12]}… has {n} done records (want 1)")
    for key, n in done_counts.items():
        problems.append(f"unexpected done record for key {key[:12]}… (x{n})")
    return problems


def run_chaos(args: argparse.Namespace) -> int:
    task = TASKS[args.task]
    grid = build_grid(args.points)
    keys = [point_key(task, item) for item in grid]

    print(f"chaos sweep: {len(grid)} points, task={args.task}, "
          f"shards={args.shards}, kills={args.kills}, seed={args.seed}, "
          f"lease_ttl={args.lease_ttl}")

    print("serial baseline ...")
    baseline = supervised_map(task, grid, context=SupervisorContext())

    monkey = ChaosMonkey(args.seed, args.kills)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        ledger_path = Path(args.ledger) if args.ledger else Path(tmp) / "ledger.jsonl"
        fabric = FabricConfig(
            shards=args.shards,
            lease_ttl=args.lease_ttl,
            observer=monkey,
            # Each kill can cost a full lease TTL before the steal; give
            # the fleet room for the monkey's whole quota and then some.
            max_respawns=max(16, 4 * args.kills),
        )
        print("chaos run ...")
        journal = FabricLedger(ledger_path)
        with supervise(SupervisorPolicy(), journal=journal, fabric=fabric) as context:
            chaotic = supervised_map(task, grid)
        print(f"  events: {context.describe()}")

        failures = []
        if len(monkey.delivered) < args.kills:
            print(
                f"FAIL: only {len(monkey.delivered)}/{args.kills} kills were "
                "delivered before the sweep drained — the chaos proved "
                "nothing; raise --points or use --task slow",
            )
            return 3
        if pickle.dumps(chaotic, protocol=4) != pickle.dumps(baseline, protocol=4):
            diffs = sum(1 for a, b in zip(baseline, chaotic) if a != b)
            failures.append(
                f"results differ from the serial baseline at {diffs} points"
            )
        failures.extend(audit_ledger(ledger_path, keys))

    if failures:
        for problem in failures:
            print(f"FAIL: {problem}")
        return 1
    steals = context.counts.get("fabric-steal", 0)
    respawns = context.counts.get("fabric-worker-respawn", 0)
    print(
        f"OK: {len(grid)} points byte-identical to the serial baseline "
        f"after {len(monkey.delivered)} SIGKILL(s), {steals} steal(s), "
        f"{respawns} respawn(s); ledger holds exactly one done record "
        "per point"
    )
    return 0


def run_quarantine_smoke(args: argparse.Namespace) -> int:
    """Poison-point smoke: the fabric must quarantine, not retry forever."""
    grid = [("poison", 0, 0, 0)]
    print(f"quarantine smoke: 1 poison point, shards={args.shards}")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        ledger_path = Path(args.ledger) if args.ledger else Path(tmp) / "ledger.jsonl"
        fabric = FabricConfig(
            shards=args.shards,
            lease_ttl=min(args.lease_ttl, 0.5),
            quarantine_after=2,
        )
        journal = FabricLedger(ledger_path)
        error = None
        try:
            with supervise(
                SupervisorPolicy(), journal=journal, fabric=fabric
            ) as context:
                supervised_map(tasks.poison_point, grid)
        except SweepPointError as raised:
            error = raised
        print(f"  events: {context.describe()}")

        quarantined = []
        with open(ledger_path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    row = json.loads(line)
                except ValueError:
                    continue
                if isinstance(row, dict) and row.get("type") == "quarantined":
                    quarantined.append(row)

    failures = []
    if error is None:
        failures.append("the poison point did not fail the sweep")
    elif not isinstance(error.cause, QuarantinedPointError):
        failures.append(f"expected a quarantine, got {error.cause!r}")
    if not quarantined:
        failures.append("no quarantined record in the ledger")
    if context.counts.get("fabric-quarantined", 0) < 1:
        failures.append("driver never counted fabric-quarantined")
    if failures:
        for problem in failures:
            print(f"FAIL: {problem}")
        return 1
    dead = quarantined[0].get("dead_workers", [])
    print(
        f"OK: poison point quarantined after killing {len(dead)} worker(s) "
        f"({', '.join(dead)}); the sweep failed instead of spinning"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaos_sweep",
        description="Prove the sweep fabric survives SIGKILLed workers.",
    )
    parser.add_argument("--points", type=int, default=16,
                        help="grid points in the sweep (default: 16)")
    parser.add_argument("--shards", type=int, default=2,
                        help="fabric worker count (default: 2)")
    parser.add_argument("--kills", type=int, default=3,
                        help="SIGKILLs the monkey must deliver (default: 3)")
    parser.add_argument("--seed", type=int, default=42,
                        help="chaos schedule seed (default: 42)")
    parser.add_argument("--lease-ttl", type=float, default=2.0,
                        help="lease TTL in seconds (default: 2; short, so "
                        "stolen points recover fast)")
    parser.add_argument("--task", choices=sorted(TASKS), default="slow",
                        help="grid task: 'slow' (~100 ms model points — "
                        "reliably killable mid-flight), 'model' "
                        "(microseconds), 'cosim' (full pipeline)")
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="keep the ledger at FILE for post-mortems "
                        "(default: a temp file, removed on exit)")
    parser.add_argument("--quarantine-smoke", action="store_true",
                        help="run the poison-point quarantine smoke "
                        "instead of the kill/identity chaos run")
    args = parser.parse_args(argv)
    if args.points < 1 or args.kills < 0 or args.shards < 1:
        print("bad configuration: points/shards must be >= 1, kills >= 0")
        return 2
    if args.quarantine_smoke:
        return run_quarantine_smoke(args)
    return run_chaos(args)


if __name__ == "__main__":
    raise SystemExit(main())
