"""Unit tests for the sweep fabric's coordination layer.

The ledger is the whole ballgame: if claims are exclusive, leases
expire honestly, results are recorded exactly once, and torn writes
can never fuse records, then the chaos results (``test_fabric_chaos``)
follow.  These tests pin each of those properties in isolation, plus
the config validation the CLIs rely on.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ConfigurationError, FabricError
from repro.harness import cli
from repro.harness.cli import build_fabric_config, build_parser
from repro.harness.executors.base import FabricConfig
from repro.harness.executors.ledger import (
    LEDGER_FORMAT,
    FabricLedger,
    ensure_no_conflicts,
)
from repro.harness.executors.worker import work_loop
from repro.harness.supervisor import (
    SupervisorContext,
    SupervisorPolicy,
    point_key,
    supervise,
    supervised_map,
)


# -- module-level tasks (ledger payloads pickle by reference) -----------


def double(item):
    return item * 2


def one_failure_then_value(item):
    """Raises on the first attempt (per-process marker), then succeeds."""
    value, marker_dir = item
    marker = marker_dir + f"/failed-{value}"
    import os

    if not os.path.exists(marker):
        open(marker, "w").close()
        raise ValueError("transient")
    return value + 100


def _cli_args(*argv: str):
    return build_parser().parse_args(["--workload", "FIMI", *argv])


class TestFabricConfig:
    def test_rejects_unknown_backend(self):
        # Backends are chosen by --executor; an unknown name, ``remote``
        # included, is a usage error.
        for name in ("carrier-pigeon", "remote"):
            with pytest.raises(SystemExit) as excinfo:
                _cli_args("--executor", name)
            assert excinfo.value.code == 2

    def test_rejects_pool_as_fabric_backend(self):
        # ``pool`` is an executor, but not a *ledger* backend.
        assert build_fabric_config(_cli_args("--executor", "pool")) is None
        config = build_fabric_config(_cli_args("--executor", "shard", "--shards", "3"))
        assert config.shards == 3

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError, match="shards"):
            FabricConfig(shards=0)
        with pytest.raises(ConfigurationError, match="lease-ttl"):
            FabricConfig(lease_ttl=0.0)
        with pytest.raises(ConfigurationError, match="quarantine"):
            FabricConfig(quarantine_after=0)

    def test_timeout_on_the_shard_executor_is_a_usage_error(self, capsys):
        # Shard workers renew a running point's lease, so nothing there
        # would enforce the budget: refused before any work starts.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                [
                    "--workload", "FIMI", "--cores", "2", "--cache", "1MB,4MB",
                    "--source", "synthetic", "--accesses", "65536",
                    "--trace-cache", "off",
                    "--executor", "shard", "--timeout", "0.001", "--retries", "0",
                ]
            )
        assert excinfo.value.code == 2
        assert "--timeout cannot be combined with --executor shard" in (
            capsys.readouterr().err
        )

    def test_supervise_refuses_a_timeout_with_a_fabric(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            with supervise(SupervisorPolicy(timeout=1.0), fabric=FabricConfig()):
                pass

    def test_heartbeat_defaults_to_a_third_of_the_ttl(self):
        assert FabricConfig(lease_ttl=30.0).heartbeat_period == 10.0
        assert FabricConfig(lease_ttl=30.0, heartbeat_every=2.0).heartbeat_period == 2.0


class TestLedgerFile:
    def test_fresh_ledger_writes_versioned_header(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        FabricLedger(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": LEDGER_FORMAT}

    def test_refuses_foreign_schema(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"format": 99}\n')
        with pytest.raises(ConfigurationError, match="schema"):
            FabricLedger(path, resume=True)

    def test_resume_without_file_creates_one(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        FabricLedger(path, resume=True)
        assert path.exists()

    def test_manifest_is_append_once_per_key(self, tmp_path):
        ledger = FabricLedger(tmp_path / "ledger.jsonl")
        points = [("k1", (double, 1)), ("k2", (double, 2))]
        assert ledger.manifest(points) == 2
        # Re-manifesting (a resumed parent) appends nothing new.
        assert ledger.manifest(points) == 0
        assert ledger.manifest(points + [("k3", (double, 3))]) == 1

    def test_remanifest_replaces_a_changed_payload(self, tmp_path):
        # A resumed sweep may carry its log in a new temporary directory:
        # workers must claim the new payload, not the first one.
        ledger = FabricLedger(tmp_path / "ledger.jsonl")
        ledger.manifest([("k1", (double, 1))])
        assert ledger.manifest([("k1", (double, 2))]) == 1
        claim = ledger.try_claim("w1", 30.0, 2, 3)
        assert claim.load() == (double, 2)

    def test_remanifest_restarts_an_interrupted_point(self, tmp_path):
        ledger = FabricLedger(tmp_path / "ledger.jsonl")
        points = [("k1", (double, 1)), ("k2", (double, 2))]
        ledger.manifest(points)
        ledger.try_claim("w1", 30.0, 2, 3, now=1000.0)  # k1, then killed
        claim = ledger.try_claim("w2", 30.0, 2, 3, now=1000.0)
        for attempt in (1, 2, 3):  # k2 exhausts its retries
            ledger.record_failed("k2", "w2", attempt, ValueError("x"), 0.0)
        assert ledger.state.points["k2"].terminal(retries=2)
        # The resumed parent re-manifests both; each starts afresh.
        assert ledger.manifest(points) == 2
        first = ledger.try_claim("w3", 30.0, 2, 3, now=1001.0)
        second = ledger.try_claim("w3", 30.0, 2, 3, now=1001.0)
        assert (first.key, first.attempt, first.steal) == ("k1", 1, False)
        assert (second.key, second.attempt) == (claim.key, 1)

    def test_remanifest_never_reopens_a_done_point(self, tmp_path):
        ledger = FabricLedger(tmp_path / "ledger.jsonl")
        ledger.manifest([("k1", (double, 1))])
        ledger.try_claim("w1", 30.0, 2, 3)
        ledger.record_done("k1", "w1", 2, 0.1, 1)
        assert ledger.manifest([("k1", (double, 5))]) == 0
        assert ledger.state.points["k1"].result() == 2

    def test_torn_tail_is_repaired_not_fused(self, tmp_path):
        """A record appended after a torn write must not fuse with it."""
        path = tmp_path / "ledger.jsonl"
        ledger = FabricLedger(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "key": "torn", "result": "AB')
        ledger.append({"schema": LEDGER_FORMAT, "type": "failed", "key": "k",
                       "worker": "w", "attempts": 1, "error": "E",
                       "retry_after": 0.0})
        lines = path.read_bytes().splitlines()
        # The torn fragment became its own (invalid) line; the appended
        # record parses cleanly and the fragment's key never surfaces.
        reader = FabricLedger(path, resume=True, create=False)
        reader.scan()
        assert "torn" not in reader.state.points
        assert "k" in reader.state.points
        assert reader.state.skipped_lines == 1
        assert json.loads(lines[-1])["type"] == "failed"

    def test_scan_ignores_incomplete_final_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = FabricLedger(path)
        ledger.append({"schema": LEDGER_FORMAT, "type": "failed", "key": "a",
                       "worker": "w", "attempts": 1, "error": "E",
                       "retry_after": 0.0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "failed", "key": "b"')  # no newline yet
        reader = FabricLedger(path, resume=True, create=False)
        reader.scan()
        assert "a" in reader.state.points
        assert "b" not in reader.state.points


class TestLeases:
    def _manifested(self, tmp_path, keys=("k1", "k2")):
        ledger = FabricLedger(tmp_path / "ledger.jsonl")
        ledger.manifest([(k, (double, i)) for i, k in enumerate(keys)])
        return ledger

    def test_claims_follow_manifest_order(self, tmp_path):
        ledger = self._manifested(tmp_path)
        claim = ledger.try_claim("w1", 30.0, retries=2, quarantine_after=3)
        assert claim.key == "k1" and claim.attempt == 1 and not claim.steal

    def test_valid_lease_is_exclusive(self, tmp_path):
        ledger = self._manifested(tmp_path, keys=("k1",))
        assert ledger.try_claim("w1", 30.0, 2, 3).key == "k1"
        assert ledger.try_claim("w2", 30.0, 2, 3) is None

    def test_expired_lease_is_stolen(self, tmp_path):
        ledger = self._manifested(tmp_path, keys=("k1",))
        ledger.try_claim("w1", 30.0, 2, 3, now=1000.0)
        stolen = ledger.try_claim("w2", 30.0, 2, 3, now=1031.0)
        assert stolen.key == "k1" and stolen.steal
        assert ledger.state.points["k1"].expired_holders == {"w1"}

    def test_heartbeat_extends_the_lease(self, tmp_path):
        ledger = self._manifested(tmp_path, keys=("k1",))
        ledger.try_claim("w1", 0.5, 2, 3, now=1000.0)
        ledger.heartbeat("k1", "w1", 3600.0)
        ledger.scan()
        assert ledger.try_claim("w2", 30.0, 2, 3, now=1001.0) is None

    def test_quarantine_after_k_distinct_dead_holders(self, tmp_path):
        ledger = self._manifested(tmp_path, keys=("k1",))
        ledger.try_claim("w1", 1.0, 2, quarantine_after=2, now=1000.0)
        ledger.try_claim("w2", 1.0, 2, quarantine_after=2, now=1002.0)
        # Third arrival: two distinct workers died holding k1 — poison.
        claim = ledger.try_claim("w3", 1.0, 2, quarantine_after=2, now=1004.0)
        assert claim is None
        ps = ledger.state.points["k1"]
        assert ps.quarantined is not None
        assert sorted(ps.quarantined["dead_workers"]) == ["w1", "w2"]
        # Quarantine is terminal: nobody ever claims it again.
        assert ledger.try_claim("w4", 1.0, 2, 2, now=1010.0) is None

    def test_same_worker_dying_twice_is_one_dead_holder(self, tmp_path):
        ledger = self._manifested(tmp_path, keys=("k1",))
        ledger.try_claim("w1", 1.0, 2, quarantine_after=2, now=1000.0)
        claim = ledger.try_claim("w1", 1.0, 2, quarantine_after=2, now=1002.0)
        # One flaky worker re-stealing its own expired lease is not
        # poison evidence — the body count is *distinct* workers.
        assert claim is not None and claim.steal

    def test_failed_attempts_gate_on_backoff_and_retries(self, tmp_path):
        ledger = self._manifested(tmp_path, keys=("k1",))
        claim = ledger.try_claim("w1", 30.0, 2, 3, now=1000.0)
        ledger.record_failed("k1", "w1", claim.attempt, ValueError("x"),
                             retry_after=1005.0)
        assert ledger.try_claim("w1", 30.0, 2, 3, now=1001.0) is None  # backoff
        retry = ledger.try_claim("w1", 30.0, 2, 3, now=1006.0)
        assert retry.attempt == 2
        ledger.record_failed("k1", "w1", 2, ValueError("x"), retry_after=0.0)
        ledger.record_failed("k1", "w1", 3, ValueError("x"), retry_after=0.0)
        # attempts (3) > retries (2): terminal, never claimed again.
        assert ledger.try_claim("w1", 30.0, 2, 3, now=2000.0) is None
        assert ledger.state.all_terminal(retries=2)


class TestRecordDone:
    def test_first_recording_wins(self, tmp_path):
        ledger = FabricLedger(tmp_path / "ledger.jsonl")
        assert ledger.record_done("k1", "w1", 42, 0.1, 1) == "done"
        assert ledger.state.points["k1"].result() == 42

    def test_byte_identical_reexecution_verifies(self, tmp_path):
        ledger = FabricLedger(tmp_path / "ledger.jsonl")
        ledger.record_done("k1", "w1", {"mpki": 3.5}, 0.1, 1)
        assert ledger.record_done("k1", "w2", {"mpki": 3.5}, 0.2, 1) == "verified"
        assert ledger.state.points["k1"].verified == 1
        ensure_no_conflicts(ledger.state)  # no complaint

    def test_divergent_reexecution_conflicts(self, tmp_path):
        ledger = FabricLedger(tmp_path / "ledger.jsonl")
        ledger.record_done("k1", "w1", 42, 0.1, 1)
        assert ledger.record_done("k1", "w2", 43, 0.2, 1) == "conflict"
        with pytest.raises(FabricError, match="pure function"):
            ensure_no_conflicts(ledger.state)

    def test_done_releases_the_lease(self, tmp_path):
        ledger = FabricLedger(tmp_path / "ledger.jsonl")
        ledger.manifest([("k1", (double, 7))])
        ledger.try_claim("w1", 30.0, 2, 3)
        ledger.record_done("k1", "w1", 14, 0.1, 1)
        assert ledger.state.points["k1"].lease_worker is None


class TestJournalInterop:
    def test_fabric_resumes_from_a_pool_journal(self, tmp_path):
        """A result the pool journaled reads as a fabric ``done`` record."""
        path = tmp_path / "journal.jsonl"
        key = point_key(double, 21)
        FabricLedger(path).record(key, 42, wall_time_s=0.5, attempts=1)
        ledger = FabricLedger(path, resume=True)
        ledger.scan()
        assert ledger.state.points[key].result() == 42

    def test_pool_resumes_from_a_fabric_ledger(self, tmp_path):
        """``--resume`` on a fabric ledger skips fabric-completed work."""
        path = tmp_path / "ledger.jsonl"
        ledger = FabricLedger(path)
        key = point_key(double, 21)
        ledger.manifest([(key, (double, 21))])
        ledger.try_claim("w1", 30.0, 2, 3)
        ledger.record_done(key, "w1", 42, 0.1, 1)
        context = SupervisorContext(journal=FabricLedger(path, resume=True))
        assert supervised_map(double, [21], context=context) == [42]
        assert context.counts["journal-skip"] == 1

    def test_recording_a_done_key_writes_nothing(self, tmp_path):
        """The supervisor journals what a shard worker already recorded."""
        path = tmp_path / "ledger.jsonl"
        FabricLedger(path).record_done("k1", "w1", 42, 0.1, 1)
        written = path.read_text()
        FabricLedger(path, resume=True).record("k1", 42, wall_time_s=0.1)
        assert path.read_text() == written

    def test_untyped_pool_journal_entries_still_resume(self, tmp_path):
        """Pool journals used to write results without a ``type``."""
        path = tmp_path / "journal.jsonl"
        FabricLedger(path).record("k1", 42)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        del rows[1]["type"], rows[1]["sha"]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert FabricLedger(path, resume=True).completed()["k1"].result() == 42


class TestWorkLoop:
    def _prepare(self, tmp_path, items, task=double, config=None):
        path = tmp_path / "ledger.jsonl"
        ledger = FabricLedger(path)
        row = {"lease_ttl": 30.0, "heartbeat_every": 0.05,
               "poll_interval": 0.01, "retries": 2,
               "backoff_base": 0.01, "backoff_cap": 0.05,
               "quarantine_after": 3}
        row.update(config or {})
        ledger.write_config(row)
        keys = [point_key(task, item) for item in items]
        ledger.manifest([(k, (task, i)) for k, i in zip(keys, items)])
        return path, ledger, keys

    def test_drains_the_manifest_and_exits_zero(self, tmp_path):
        path, ledger, keys = self._prepare(tmp_path, [1, 2, 3])
        assert work_loop(str(path), "w1", poll_interval=0.01) == 0
        ledger.scan()
        assert [ledger.state.points[k].result() for k in keys] == [2, 4, 6]

    def test_failed_attempts_are_recorded_and_retried(self, tmp_path):
        items = [(5, str(tmp_path))]
        path, ledger, keys = self._prepare(
            tmp_path, items, task=one_failure_then_value
        )
        assert work_loop(str(path), "w1", poll_interval=0.01) == 0
        ledger.scan()
        ps = ledger.state.points[keys[0]]
        assert ps.result() == 105
        assert ps.attempts() == 1  # one recorded failure before success
        assert ps.done["attempts"] == 2

    def test_stop_event_ends_the_loop_cleanly(self, tmp_path):
        path, _, _ = self._prepare(tmp_path, [])
        stop = threading.Event()
        stop.set()
        assert work_loop(str(path), "w1", poll_interval=0.01, stop=stop) == 0
