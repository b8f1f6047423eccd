"""Chaos and integration tests for the ledger-backed sweep fabric.

The contract: a fabric sweep returns exactly what a serial supervised
run returns — byte-for-byte — no matter how many workers are
SIGKILLed mid-point, and the ledger accounts for every point exactly
once.  Poison points (points that kill every worker that executes
them) are quarantined instead of eating the respawn budget.

These tests drive real multi-process sweeps: forked shard workers and
the ``scripts/chaos_sweep.py`` harness that CI's
``fabric-chaos-smoke`` job runs.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from pathlib import Path

import pytest

from repro.errors import SweepPointError
from repro.harness.executors import tasks
from repro.harness.executors.base import FabricConfig
from repro.harness.executors.ledger import FabricLedger
from repro.harness.supervisor import (
    SupervisorContext,
    SupervisorPolicy,
    point_key,
    supervise,
    supervised_map,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import chaos_sweep  # noqa: E402  (the harness under test)


# -- module-level tasks (fabric payloads pickle by reference) -----------


def always_raises(item):
    raise ValueError(f"bad point {item}")


#: A small real grid: 16 (workload, cores, cache, line) points.
GRID = chaos_sweep.build_grid(16)


def identical(a, b) -> bool:
    """Byte-identity, the fabric's actual claim (== would accept 1 vs 1.0)."""
    return pickle.dumps(a, protocol=4) == pickle.dumps(b, protocol=4)


class TestFabricIdentity:
    def test_shard_fabric_matches_serial(self, tmp_path):
        serial = supervised_map(
            tasks.model_mpki_point, GRID, context=SupervisorContext()
        )
        fabric = FabricConfig(shards=3, lease_ttl=10.0)
        journal = FabricLedger(tmp_path / "ledger.jsonl")
        with supervise(SupervisorPolicy(), journal=journal, fabric=fabric) as context:
            out = supervised_map(tasks.model_mpki_point, GRID)
        assert identical(out, serial)
        assert context.counts["fabric-lease"] == len(GRID)
        assert "fabric-steal" not in context.counts

    def test_fabric_resume_skips_completed_points(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        fabric = FabricConfig(shards=2)
        with supervise(SupervisorPolicy(), journal=FabricLedger(ledger), fabric=fabric):
            first = supervised_map(tasks.model_mpki_point, GRID)
        resumed = FabricLedger(ledger, resume=True)
        with supervise(SupervisorPolicy(), journal=resumed, fabric=fabric) as context:
            second = supervised_map(tasks.model_mpki_point, GRID)
        assert identical(first, second)
        assert context.counts["journal-skip"] == len(GRID)
        assert "fabric-lease" not in context.counts  # nothing re-ran


class TestChaos:
    def test_sigkilled_workers_do_not_change_results(self, tmp_path):
        """The tentpole claim: >= 3 SIGKILLs, byte-identical results,
        exactly one done record per point in the ledger."""
        serial = supervised_map(
            tasks.slow_mpki_point, GRID, context=SupervisorContext()
        )
        ledger_path = tmp_path / "ledger.jsonl"
        monkey = chaos_sweep.ChaosMonkey(seed=42, kills=3)
        fabric = FabricConfig(
            shards=2,
            lease_ttl=1.0,
            observer=monkey,
            max_respawns=16,
        )
        journal = FabricLedger(ledger_path)
        with supervise(SupervisorPolicy(), journal=journal, fabric=fabric) as context:
            out = supervised_map(tasks.slow_mpki_point, GRID)
        assert len(monkey.delivered) >= 3, (
            "the sweep drained before the monkey's quota — the run "
            f"proved nothing (delivered: {monkey.delivered})"
        )
        assert identical(out, serial)
        keys = [point_key(tasks.slow_mpki_point, item) for item in GRID]
        assert chaos_sweep.audit_ledger(ledger_path, keys) == []
        assert context.counts["fabric-worker-respawn"] >= 3

    def test_kill_during_drain_is_harmless(self, tmp_path):
        """A worker killed while the last points finish must not wedge
        the driver (the respawn path runs even with one point left)."""
        grid = GRID[:4]
        killed = []

        def late_killer(backend, cycle):
            if cycle == 2 and not killed:
                pids = backend.worker_pids()
                if pids:
                    victim = sorted(pids)[0]
                    os.kill(pids[victim], signal.SIGKILL)
                    killed.append(victim)

        serial = supervised_map(
            tasks.slow_mpki_point, grid, context=SupervisorContext()
        )
        fabric = FabricConfig(shards=2, lease_ttl=1.0, observer=late_killer)
        journal = FabricLedger(tmp_path / "ledger.jsonl")
        with supervise(SupervisorPolicy(), journal=journal, fabric=fabric):
            out = supervised_map(tasks.slow_mpki_point, grid)
        assert identical(out, serial)
        assert killed  # the kill really happened


class TestQuarantine:
    def test_poison_point_raises_without_degradation(self, tmp_path):
        fabric = FabricConfig(shards=2, lease_ttl=0.5, quarantine_after=2)
        journal = FabricLedger(tmp_path / "ledger.jsonl")
        with pytest.raises(SweepPointError, match="quarantined"):
            with supervise(
                SupervisorPolicy(), journal=journal, fabric=fabric
            ) as context:
                supervised_map(tasks.poison_point, [("poison", 0, 0, 0)])
        assert context.counts["fabric-quarantined"] == 1


class TestFailurePaths:
    def test_exhausted_point_raises_sweep_point_error(self, tmp_path):
        fabric = FabricConfig(shards=2, lease_ttl=10.0)
        policy = SupervisorPolicy(retries=1, backoff_base=0.01)
        journal = FabricLedger(tmp_path / "ledger.jsonl")
        with pytest.raises(SweepPointError, match="bad point"):
            with supervise(policy, journal=journal, fabric=fabric) as context:
                supervised_map(always_raises, [1])
        assert context.counts["point-retry"] == 1  # one retry per point


class TestChaosScript:
    """The CI smoke job's entry points, exercised in-process."""

    def test_chaos_run_exits_zero(self, capsys):
        code = chaos_sweep.main(
            ["--points", "8", "--kills", "2", "--seed", "3", "--lease-ttl", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "byte-identical to the serial baseline" in out

    def test_quarantine_smoke_exits_zero(self, capsys):
        code = chaos_sweep.main(["--quarantine-smoke"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "quarantined" in out
