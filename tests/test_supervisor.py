"""Tests for the fault-tolerant sweep supervisor.

The contract under test: fault-free supervised runs return exactly what
``parallel_map`` returns; under faults — worker crashes, hangs, flaky
exceptions, SIGINT — the supervisor retries with backoff, re-forks the
lane of a dead or hung worker, journals completed points for
``--resume``, and a point out of retries fails loudly with the
offending grid point attached.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.errors import ConfigurationError, SweepInterrupted, SweepPointError
from repro.faults.spec import FaultSpec
from repro.harness.executors.ledger import (
    LEDGER_FORMAT,
    FabricLedger,
    decode_result,
)
from repro.harness.parallel import parallel_map
from repro.harness.supervisor import (
    SupervisorContext,
    SupervisorPolicy,
    point_key,
    supervise,
    supervised_map,
)
from repro.telemetry import runtime as telemetry
from tests.processes import exited, idle_pool_pids, lane_pids, wait_exited


# -- module-level tasks (they cross process boundaries) -----------------


def square(item):
    return item * item


def flaky_crash(item):
    """Dies hard (kills its worker) until a marker file exists."""
    value, marker_dir = item
    marker = os.path.join(marker_dir, f"crash-{value}")
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(9)
    return value * 10


def flaky_raise(item):
    """Raises until a marker file exists."""
    value, marker_dir = item
    marker = os.path.join(marker_dir, f"raise-{value}")
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise ValueError(f"transient failure at {value}")
    return value + 1


def hang_once(item):
    """Stalls one specific point on its first attempt only."""
    value, marker_dir = item
    marker = os.path.join(marker_dir, f"hang-{value}")
    if value == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(60)
    return value + 100


def dies_once_or_sleeps(item):
    """Point 0 kills its worker 0.3 s in, once; point 1 sleeps 1 s.

    Each start of point 1 appends to a file, so a test can count them.
    """
    value, marker_dir = item
    if value == 0:
        marker = os.path.join(marker_dir, "died")
        if not os.path.exists(marker):
            time.sleep(0.3)
            open(marker, "w").close()
            os._exit(9)
    else:
        with open(os.path.join(marker_dir, "starts-1"), "a") as handle:
            handle.write("x")
        time.sleep(1.0)
    return value * 10


def hangs_once_or_paces(item):
    """Point 0 hangs on its first start; point 1 takes 0.5 s, point 2
    0.75 s.  Each start appends to a file named after the point."""
    value, marker_dir = item
    starts = os.path.join(marker_dir, f"starts-{value}")
    with open(starts, "a") as handle:
        handle.write("x")
    if value == 0 and os.path.getsize(starts) == 1:
        time.sleep(60)
    time.sleep({0: 0.0, 1: 0.5, 2: 0.75}[value])
    return value + 100


def always_fails(item):
    raise RuntimeError(f"point {item} is broken")


def dict_total(item):
    return sum(item.values())


def interrupts(item):
    if item == 1:
        raise KeyboardInterrupt
    return item


def worker_pid(item):
    """The running process's pid, after a pause long enough that every
    worker of a small pool takes part in an eight-point map."""
    time.sleep(0.05)
    return os.getpid()


def pid_after(seconds):
    """The running process's pid, after ``seconds``."""
    time.sleep(seconds)
    return os.getpid()


class TestFaultFreeParity:
    def test_matches_parallel_map_serial_and_pooled(self):
        items = list(range(8))
        expected = parallel_map(square, items)
        assert supervised_map(square, items, jobs=None) == expected
        assert supervised_map(square, items, jobs=3) == expected

    def test_parallel_map_delegates_under_supervise(self):
        with supervise() as context:
            assert parallel_map(square, [1, 2, 3], jobs=2) == [1, 4, 9]
        assert context.completed == 3

    def test_empty_items(self):
        assert supervised_map(square, [], jobs=4) == []


class TestRetries:
    def test_transient_exception_is_retried(self, tmp_path):
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=2, backoff_base=0.01)
        )
        items = [(i, str(tmp_path)) for i in range(4)]
        assert supervised_map(flaky_raise, items, jobs=2, context=context) == [
            1,
            2,
            3,
            4,
        ]
        assert context.counts["point-retry"] == 4

    def test_exhausted_point_raises_sweep_point_error(self):
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=1, backoff_base=0.01)
        )
        with pytest.raises(SweepPointError) as info:
            supervised_map(always_fails, [7], jobs=2, context=context)
        assert info.value.point == 7
        assert info.value.attempts == 2
        assert isinstance(info.value.cause, RuntimeError)


class TestCrashRecovery:
    def test_broken_pool_respawns_and_completes(self, tmp_path):
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=2, backoff_base=0.01)
        )
        items = [(i, str(tmp_path)) for i in (1, 2, 3)]
        out = supervised_map(flaky_crash, items, jobs=2, context=context)
        assert out == [10, 20, 30]
        assert context.counts["pool-respawn"] >= 1
        assert context.counts["worker-crash"] >= 1

    def test_one_worker_death_charges_only_its_point(self, tmp_path):
        """Two points on two workers: point 0's worker dies once while
        point 1 runs on.  Only point 0 is charged, and point 1 runs
        once; with no retries the sweep fails naming point 0."""
        first, second = tmp_path / "retried", tmp_path / "no-retries"
        first.mkdir()
        second.mkdir()
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=1, backoff_base=0.01)
        )
        items = [(i, str(first)) for i in (0, 1)]
        out = supervised_map(dies_once_or_sleeps, items, jobs=2, context=context)
        assert out == [0, 10]
        assert context.counts["worker-crash"] == 1
        assert (first / "starts-1").read_text() == "x"

        items = [(i, str(second)) for i in (0, 1)]
        with pytest.raises(SweepPointError) as info:
            supervised_map(
                dies_once_or_sleeps, items, jobs=2, context=_no_retries()
            )
        assert info.value.point == items[0]

    def test_injected_crash_first_attempt_only(self):
        spec = FaultSpec(seed=5, crash=1.0)
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=1, backoff_base=0.01), fault_spec=spec
        )
        assert supervised_map(square, [2, 3], jobs=2, context=context) == [4, 9]
        assert context.counts["worker-crash-injected"] == 2

    def test_injected_crash_serial_degenerates_to_retry(self):
        spec = FaultSpec(seed=5, crash=1.0)
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=1, backoff_base=0.01), fault_spec=spec
        )
        assert supervised_map(square, [2, 3], jobs=None, context=context) == [4, 9]


class TestTimeouts:
    def test_hung_point_is_killed_and_retried(self, tmp_path):
        context = SupervisorContext(
            policy=SupervisorPolicy(timeout=1.0, retries=2, backoff_base=0.01)
        )
        items = [(i, str(tmp_path)) for i in (1, 2, 3)]
        start = time.monotonic()
        out = supervised_map(hang_once, items, jobs=2, context=context)
        elapsed = time.monotonic() - start
        assert out == [101, 102, 103]
        assert context.counts["point-timeout"] == 1
        assert elapsed < 30  # nowhere near the 60 s sleep

    def test_timeout_spares_the_other_workers_points(self, tmp_path):
        """Point 0 hangs past its 1 s budget while point 2, started at
        about 0.5 s on the other worker, is still running: only point
        0's worker is killed, and point 2 runs once."""
        context = SupervisorContext(
            policy=SupervisorPolicy(timeout=1.0, retries=1, backoff_base=0.01)
        )
        items = [(i, str(tmp_path)) for i in (0, 1, 2)]
        out = supervised_map(hangs_once_or_paces, items, jobs=2, context=context)
        assert out == [100, 101, 102]
        assert context.counts["point-timeout"] == 1
        assert (tmp_path / "starts-2").read_text() == "x"


class TestJournalResume:
    def test_completed_points_are_skipped_on_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        context = SupervisorContext(journal=FabricLedger(path))
        first = supervised_map(square, [1, 2, 3], jobs=None, context=context)
        context = SupervisorContext(journal=FabricLedger(path, resume=True))
        second = supervised_map(square, [1, 2, 3], jobs=None, context=context)
        assert first == second
        assert context.counts["journal-skip"] == 3

    def test_partial_journal_reruns_only_missing_points(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        context = SupervisorContext(journal=FabricLedger(path))
        supervised_map(square, [1, 2], jobs=None, context=context)
        context = SupervisorContext(journal=FabricLedger(path, resume=True))
        out = supervised_map(square, [1, 2, 3, 4], jobs=None, context=context)
        assert out == [1, 4, 9, 16]
        assert context.counts["journal-skip"] == 2

    def test_torn_tail_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        context = SupervisorContext(journal=FabricLedger(path))
        supervised_map(square, [1, 2, 3], jobs=None, context=context)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "deadbeef", "result": "truncat')  # no newline
        context = SupervisorContext(journal=FabricLedger(path, resume=True))
        out = supervised_map(square, [1, 2, 3], jobs=None, context=context)
        assert out == [1, 4, 9]
        assert context.counts["journal-skip"] == 3

    def test_point_key_depends_on_task_and_item(self):
        assert point_key(square, 1) == point_key(square, 1)
        assert point_key(square, 1) != point_key(square, 2)
        assert point_key(square, 1) != point_key(
            always_fails, 1
        )

    def test_point_key_ignores_container_ordering(self):
        """Pickle serializes dicts/sets in iteration order; the key must
        not — equal grid points get equal keys however they were built."""
        assert point_key(square, {"a": 1, "b": 2}) == (
            point_key(square, {"b": 2, "a": 1})
        )
        assert point_key(square, {"a": 1, "b": 2}) != (
            point_key(square, {"a": 2, "b": 1})
        )
        nested = {"geometry": {"size": 1, "lines": 64}, "flags": ["x"]}
        reordered = {"flags": ["x"], "geometry": {"lines": 64, "size": 1}}
        assert point_key(square, nested) == (
            point_key(square, reordered)
        )
        assert point_key(square, {3, 1, 2}) == (
            point_key(square, {2, 3, 1})
        )
        # A set is not the tuple of its members.
        assert point_key(square, {1, 2}) != (
            point_key(square, (1, 2))
        )

    def test_resume_skips_reordered_dict_points(self, tmp_path):
        """--resume must not re-run a completed point whose dict item
        was rebuilt with a different insertion order."""
        path = tmp_path / "journal.jsonl"
        first_grid = [{"a": 1, "b": 2}, {"b": 30, "a": 10}]
        context = SupervisorContext(journal=FabricLedger(path))
        first = supervised_map(dict_total, first_grid, jobs=None, context=context)
        reordered_grid = [{"b": 2, "a": 1}, {"a": 10, "b": 30}]
        context = SupervisorContext(journal=FabricLedger(path, resume=True))
        second = supervised_map(dict_total, reordered_grid, jobs=None, context=context)
        assert first == second == [3, 40]
        assert context.counts["journal-skip"] == 2


    def test_resume_without_file_creates_one(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        FabricLedger(path, resume=True)
        assert path.exists()

    def test_recording_a_done_key_writes_nothing(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        FabricLedger(path).record("k1", 42, wall_time_s=0.1)
        written = path.read_text()
        FabricLedger(path, resume=True).record("k1", 42, wall_time_s=0.2)
        assert path.read_text() == written

    def test_untyped_pool_journal_entries_still_resume(self, tmp_path):
        """Pool journals used to write results without a ``type``."""
        path = tmp_path / "journal.jsonl"
        FabricLedger(path).record("k1", 42)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        del rows[1]["type"], rows[1]["sha"]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        completed = FabricLedger(path, resume=True).completed()
        assert decode_result(completed["k1"]) == 42


class TestInterrupt:
    def test_sigint_drains_to_sweep_interrupted(self, capsys):
        context = SupervisorContext(policy=SupervisorPolicy(backoff_base=0.01))
        with pytest.raises(SweepInterrupted):
            supervised_map(interrupts, [0, 1, 2], jobs=None, context=context)
        assert "sweep interrupted" in capsys.readouterr().err

    def test_sigint_in_worker_drains_pool(self, capsys):
        context = SupervisorContext(policy=SupervisorPolicy(backoff_base=0.01))
        with pytest.raises(SweepInterrupted):
            supervised_map(interrupts, [0, 1, 2], jobs=2, context=context)
        assert "sweep interrupted" in capsys.readouterr().err


class TestJournalDurability:
    def test_every_append_is_fsynced(self, tmp_path, monkeypatch):
        """A point counts as journaled only once the bytes hit the
        platter — record() must fsync, not merely flush.  The sync must
        land on the journal file itself, not on its ``.lock`` sidecar."""
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(os.fstat(fd).st_ino) or real_fsync(fd)
        )
        path = tmp_path / "journal.jsonl"
        journal = FabricLedger(path)
        before = len(synced)
        journal.record("k1", 42)
        assert len(synced) == before + 1
        assert synced[-1] == path.stat().st_ino
        assert decode_result(journal.completed()["k1"]) == 42

    def test_mid_record_kill_loses_only_the_torn_point(self, tmp_path):
        """SIGKILL delivered mid-``write(2)``: the journal keeps every
        record appended before the kill and drops only the torn tail.

        A child process journals two points, starts a third record but
        is killed after only part of its line reaches the file, exactly
        what a power cut or OOM kill leaves behind.
        """
        import signal
        import subprocess
        import sys
        import textwrap

        path = tmp_path / "journal.jsonl"
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.harness.executors.ledger import FabricLedger
            from repro.harness.supervisor import point_key
            journal = FabricLedger({str(path)!r})
            journal.record(point_key(abs, 1), 1)
            journal.record(point_key(abs, 2), 4)
            # Begin a third record but die with only half its bytes
            # written (bypassing record(), whose write is atomic from
            # Python's side — the torn state is what the *kernel* has).
            handle = open({str(path)!r}, "a")
            handle.write('{{"schema": 3, "key": "half-a-rec')
            handle.flush()
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env)
        assert proc.returncode == -signal.SIGKILL
        completed = FabricLedger(path, resume=True).completed()
        assert {key: decode_result(row) for key, row in completed.items()} == {
            point_key(abs, 1): 1,
            point_key(abs, 2): 4,
        }


    def test_torn_tail_is_repaired_not_fused(self, tmp_path):
        """A record appended after a torn write must not fuse with it."""
        path = tmp_path / "journal.jsonl"
        journal = FabricLedger(path)
        torn = '{"schema": 3, "type": "done", "key": "torn", "result": "AB'
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(torn)
        journal.record("k", 42)
        lines = path.read_text().splitlines()
        # The torn fragment became its own (invalid) line; the appended
        # record parses cleanly and the fragment's key never surfaces.
        assert lines[-2] == torn
        assert json.loads(lines[-1])["key"] == "k"
        completed = FabricLedger(path, resume=True).completed()
        assert set(completed) == {"k"}
        assert decode_result(completed["k"]) == 42

    def test_scan_ignores_incomplete_final_line(self, tmp_path):
        """A record counts once its terminating newline lands."""
        path = tmp_path / "journal.jsonl"
        FabricLedger(path).record("a", 1)
        row = json.loads(path.read_text().splitlines()[-1])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**row, "key": "b"}))  # no newline yet
        reader = FabricLedger(path, resume=True)
        assert set(reader.completed()) == {"a"}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")
        assert set(reader.completed()) == {"a", "b"}


class TestTerminateFallback:
    def test_pool_processes_reads_a_real_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.harness.executors.local import pool_processes

        with ProcessPoolExecutor(max_workers=1) as pool:
            pool.submit(square, 2).result()
            assert all(p.is_alive() for p in pool_processes(pool))

    def test_pool_processes_guards_missing_private_attribute(self):
        """CPython renaming ``_processes`` must degrade the helper to
        an empty list, never an AttributeError in the drain path."""
        from repro.harness.executors.local import pool_processes

        class NoProcesses:
            pass

        class NoneProcesses:
            _processes = None

        class HostileProcesses:
            class _processes:  # .values() raises like a retyped attr
                @staticmethod
                def values():
                    raise TypeError("not a mapping anymore")

        assert pool_processes(NoProcesses()) == []
        assert pool_processes(NoneProcesses()) == []
        assert pool_processes(HostileProcesses()) == []

    def test_terminate_falls_back_to_plain_shutdown(self):
        """With no enumerable workers, terminate_pool still shuts the
        pool down instead of crashing — the documented fallback."""
        from repro.harness.executors.local import terminate_pool

        calls = []

        class ShutdownOnly:
            def shutdown(self, wait, cancel_futures):
                calls.append((wait, cancel_futures))

        terminate_pool(ShutdownOnly())
        assert calls == [(False, True)]


def _wait_broken(lane) -> None:
    """Wait until a lane has noticed that its worker died."""
    deadline = time.monotonic() + 10.0
    while not lane._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert lane._broken


class TestBrokenPoolSubmit:
    """A dead worker breaks only its own lane, and the lane's next
    submit runs on a freshly forked worker."""

    def test_crash_on_one_lane_spares_the_other_lanes_point(self):
        from repro.harness.executors.local import LocalPoolExecutor

        backend = LocalPoolExecutor(2)
        try:
            crashed = backend.submit(square, 2, fault="crash")
            survivor = backend.submit(pid_after, 1.5)
            [event] = backend.poll(10.0)
            assert (event.kind, event.handle) == ("crash", crashed)
            assert not survivor.done()
            replacement = backend.submit(pid_after, 0.0)
            events = {}
            while len(events) < 2:
                events.update((e.handle, e) for e in backend.poll(10.0))
            assert [events[h].kind for h in (survivor, replacement)] == [
                "done",
                "done",
            ]
            assert events[survivor].value != events[replacement].value
        finally:
            backend.cancel()

    def test_pool_broken_while_idle_is_rebuilt_on_submit(self):
        from repro.harness.executors.local import LocalPoolExecutor, pool_processes

        backend = LocalPoolExecutor(1)
        try:
            backend.submit(square, 2)
            assert [e.kind for e in backend.poll(10.0)] == ["done"]
            [broken_lane] = backend._lanes
            for process in pool_processes(broken_lane):
                process.kill()
            _wait_broken(broken_lane)
            handle = backend.submit(square, 3)
            assert backend._lanes[0] is not broken_lane
            [event] = backend.poll(10.0)
            assert (event.kind, event.handle, event.value) == ("done", handle, 9)
        finally:
            backend.cancel()


def _no_retries() -> SupervisorContext:
    return SupervisorContext(policy=SupervisorPolicy(retries=0))


def _pooled_pids(jobs: int = 2, context: SupervisorContext | None = None):
    """Run an eight-point map; the pids of the pool it leaves idle,
    whose workers ran every point."""
    ran = set(supervised_map(worker_pid, list(range(8)), jobs=jobs, context=context))
    pool = idle_pool_pids()
    assert ran <= pool and len(pool) == jobs
    return pool


class TestPoolLifetime:
    """The worker lanes outlive the map that forked them: the next map
    of the same width under the same telemetry session runs on the same
    workers.  A map of another width, a failed point or a new session
    gets fresh workers, and a crashed worker's lane a fresh one."""

    def test_consecutive_maps_share_their_workers(self):
        first = _pooled_pids()
        assert _pooled_pids() == first

    def test_another_worker_count_forks_fresh_workers(self):
        first = _pooled_pids(jobs=2)
        assert not _pooled_pids(jobs=3) & first
        assert wait_exited(first) == []

    def test_failed_point_drops_the_pool(self):
        first = _pooled_pids()
        with pytest.raises(SweepPointError):
            supervised_map(always_fails, [1, 2], jobs=2, context=_no_retries())
        assert idle_pool_pids() == set()
        assert wait_exited(first) == []
        assert not _pooled_pids() & first

    def test_respawned_pool_replaces_the_workers(self):
        first = _pooled_pids()
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=1, backoff_base=0.01),
            fault_spec=FaultSpec(seed=5, crash=1.0),
        )
        assert supervised_map(square, [2, 3], jobs=2, context=context) == [4, 9]
        assert context.counts["pool-respawn"] >= 1
        assert not idle_pool_pids() & first
        assert not _pooled_pids() & first

    def test_cancel_kills_a_busy_worker(self):
        from repro.harness.executors.local import LocalPoolExecutor

        backend = LocalPoolExecutor(2)
        backend.submit(time.sleep, 60)
        time.sleep(0.5)
        pids = lane_pids(backend._lanes)
        backend.cancel()
        assert wait_exited(pids) == []

    def test_new_telemetry_session_forks_fresh_workers(self):
        first = _pooled_pids()
        with telemetry.session():
            inside = _pooled_pids()
            assert _pooled_pids() == inside
        assert not inside & first
        assert not _pooled_pids() & inside

    def test_worker_killed_while_idle_costs_one_rebuild(self):
        from repro.harness.executors import local

        first = _pooled_pids()
        victim = min(first)
        os.kill(victim, signal.SIGKILL)
        [lane] = [lane for lane in local._idle.lanes if victim in lane_pids([lane])]
        _wait_broken(lane)
        context = _no_retries()
        second = _pooled_pids(context=context)
        assert first - second == {victim}  # the sibling keeps its worker
        assert len(second - first) == 1
        assert context.counts == {}  # no point-retry, no worker-crash


class TestWorkerSignals:
    """Pool workers die with their parent and leave Ctrl-C to it."""

    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        """A parent SIGKILLed mid-map (CI's kill-and-resume step) must
        not leave its workers running, reparented to init."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import os, signal, sys, time
            from repro.harness.parallel import parallel_map

            PIDS = sys.argv[1]

            def linger(item):
                open(os.path.join(PIDS, str(os.getpid())), "w").close()
                if item == 0:
                    deadline = time.monotonic() + 30
                    while len(os.listdir(PIDS)) < 2 and time.monotonic() < deadline:
                        time.sleep(0.01)
                    os.kill(os.getppid(), signal.SIGKILL)
                time.sleep(60)

            parallel_map(linger, [0, 1], jobs=2)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL
        pids = [int(name) for name in os.listdir(tmp_path)]
        assert len(pids) == 2
        try:
            assert wait_exited(pids, timeout=10.0) == []
        finally:
            for pid in pids:
                if not exited(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_idle_workers_ignore_sigint(self):
        first = _pooled_pids()
        for pid in first:
            os.kill(pid, signal.SIGINT)
        time.sleep(0.5)  # time enough for a default handler to kill them
        context = _no_retries()
        assert _pooled_pids(context=context) == first
        assert "pool-respawn" not in context.counts


class _StuckFuture:
    def done(self):
        return False


class _RecordingBackend:
    def __init__(self):
        self.killed = []

    def kill(self, future):
        self.killed.append(future)


class TestReapHung:
    def test_kills_only_the_expired_flights_lane(self):
        """Direct exercise of ``_reap_hung``: the expired flight's
        worker is killed through the backend and the flight charged a
        timeout failure, while the other flight stays in flight."""
        from repro.harness.supervisor import _Flight, _reap_hung

        context = SupervisorContext(policy=SupervisorPolicy(timeout=0.5))
        hung, innocent = _StuckFuture(), _StuckFuture()
        now = time.monotonic()
        inflight = {
            hung: _Flight(index=0, deadline=now - 1.0),
            innocent: _Flight(index=1, deadline=now + 60.0),
        }
        backend, failed = _RecordingBackend(), []
        _reap_hung(
            context,
            inflight,
            backend,
            lambda index, cause, kind: failed.append((index, kind, str(cause))),
        )
        assert backend.killed == [hung]
        assert list(inflight) == [innocent]
        assert context.counts == {"pool-respawn": 1}
        [(index, kind, message)] = failed
        assert (index, kind) == (0, "point-timeout")
        assert "0.5s wall-clock budget" in message

    def test_no_deadline_means_no_reaping(self):
        from repro.harness.supervisor import _Flight, _reap_hung

        context = SupervisorContext()
        inflight = {_StuckFuture(): _Flight(index=0, deadline=None)}
        backend = _RecordingBackend()
        boom = lambda *a: pytest.fail("nothing should be reaped")  # noqa: E731
        _reap_hung(context, inflight, backend, boom)
        assert backend.killed == []
        assert len(inflight) == 1


class TestJournalV3:
    """The v3 schema: per-entry wall_time_s and attempts cost metadata."""

    def test_fresh_ledger_writes_versioned_header(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        FabricLedger(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": LEDGER_FORMAT}

    def test_refuses_foreign_schema(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"format": 99}\n')
        with pytest.raises(ConfigurationError, match="schema"):
            FabricLedger(path, resume=True)

    def test_entries_carry_wall_time_and_attempts(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        context = SupervisorContext(journal=FabricLedger(path))
        supervised_map(square, [1, 2], jobs=None, context=context)
        rows = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert rows[0] == {"format": LEDGER_FORMAT}
        for row in rows[1:]:
            assert row["schema"] == LEDGER_FORMAT
            assert row["attempts"] == 1
            assert isinstance(row["wall_time_s"], float)
            assert row["wall_time_s"] >= 0.0

    def test_retried_point_records_its_attempt_count(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        context = SupervisorContext(
            policy=SupervisorPolicy(retries=2, backoff_base=0.01),
            journal=FabricLedger(path),
        )
        supervised_map(flaky_raise, [(5, str(tmp_path))], jobs=None, context=context)
        rows = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert rows[-1]["attempts"] == 2  # one failure, then success

    def test_resume_loads_cost_metadata(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        context = SupervisorContext(journal=FabricLedger(path))
        supervised_map(square, [1, 2, 3], jobs=None, context=context)
        completed = FabricLedger(path, resume=True).completed()
        assert len(completed) == 3
        for row in completed.values():
            assert row["attempts"] == 1
            assert row["wall_time_s"] >= 0.0

    def test_v2_journal_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"format": 2}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="schema 2"):
            FabricLedger(path, resume=True)

    def test_v2_entry_in_a_v3_journal_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            '{"format": 3}\n{"schema": 2, "key": "k1", "result": "x"}\n',
            encoding="utf-8",
        )
        journal = FabricLedger(path, resume=True)
        with pytest.raises(ConfigurationError, match="entry carries schema 2"):
            supervised_map(square, [1], context=SupervisorContext(journal=journal))
