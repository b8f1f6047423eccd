"""Route parity: every route that computes a job's result agrees.

One job spec must yield one ``result_digest`` whichever front door ran
it: ``JobSpec.run()`` serial or pooled, the same under ``supervise()``,
a supervised pool whose workers crash and hang under harness fault
injection, the replay engine's per-event loop, a ``run_batch`` slice,
or a ``JobServer`` job.  A journal written without a trace cache must
let a resumed run skip every point and append nothing, a serial sweep
stopped partway must finish on the pool, and a ledger the removed
shard executor left, with the record types it wrote, must resume on
the pool on exactly its ``done`` keys.
"""

from __future__ import annotations

import base64
import functools
import json
import pickle
from pathlib import Path

import pytest

from repro.errors import SweepInterrupted
from repro.faults.spec import FaultSpec
from repro.harness.executors.ledger import FabricLedger
from repro.harness.supervisor import SupervisorPolicy, supervise
from repro.serve.jobspec import JobSpec, result_digest, run_batch
from repro.serve.server import JobServer
from tests.per_event import per_event_replay

MB = 1024 * 1024

#: Two cache sizes over one small synthetic capture, exact and lenient
#: under bus-level fault injection.
SPECS = {
    "exact": {
        "workload": "FIMI",
        "cores": 2,
        "cache": [MB, 4 * MB],
        "source": "synthetic",
        "accesses": 4096,
    },
    "lenient-inject": {
        "workload": "FIMI",
        "cores": 2,
        "cache": [MB, 4 * MB],
        "source": "synthetic",
        "accesses": 4096,
        "lenient": True,
        "inject": "seed=42,drop-data=0.002,drop-msg=0.05",
    },
}


#: Four sizes, for the sweeps stopped partway.
SIZES = [MB, 2 * MB, 4 * MB, 8 * MB]


def _spec(name: str, **overrides) -> JobSpec:
    return JobSpec.from_json({**SPECS[name], **overrides})


def _supervised(spec: JobSpec, tmp_path: Path, jobs: int | None = None, **kwargs):
    with supervise(SupervisorPolicy(), **kwargs):
        return spec.run(jobs=jobs)


def _supervised_pool_faults(spec: JobSpec, tmp_path: Path):
    # Seed 2 crashes one worker and hangs another on either spec; the
    # counts fail loudly if a seed change stops the injection.
    faults = FaultSpec.parse("seed=2,crash=0.5,hang=0.5,hang-seconds=0.05")
    with supervise(SupervisorPolicy(backoff_base=0.01), fault_spec=faults) as context:
        results = spec.run(jobs=2)
    assert context.counts.get("worker-crash-injected")
    assert context.counts.get("worker-hang-injected")
    return results


def _per_event(spec: JobSpec, tmp_path: Path):
    # Serial, so every point replays in this process, through the snooper.
    with per_event_replay() as snoopers:
        results = spec.run()
    assert len(snoopers) == len(spec.cache)
    assert all(snooper.chunks for snooper in snoopers)
    return results


def _batch_slice(spec: JobSpec, tmp_path: Path):
    # A rider with a larger size in front, so the spec's results sit at
    # slots 1 and 2 of the pooled pass, not 0 and 1.
    rider = JobSpec.from_json({**spec.to_json(), "cache": [16 * MB, MB]})
    return run_batch([rider, spec])[1]


def _served(spec: JobSpec, tmp_path: Path):
    server = JobServer()
    server.start_worker()
    try:
        response, _ = server.submit({"spec": spec.to_json()})
        job = server.get_job(response["job_id"], wait=120)
        assert job.state == "done", job.error
        return job.digest
    finally:
        server.shutdown()


ROUTES = {
    "run-pool": lambda spec, tmp_path: spec.run(jobs=2),
    "supervised-serial": _supervised,
    "supervised-pool": functools.partial(_supervised, jobs=2),
    "supervised-pool-faults": _supervised_pool_faults,
    "per-event": _per_event,
    "batch-slice": _batch_slice,
    "served": _served,
}


@functools.lru_cache(maxsize=None)
def _serial_digest(name: str) -> str:
    return result_digest(_spec(name).run())


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", SPECS)
def test_route_digest_matches_serial_run(name, route, tmp_path):
    outcome = ROUTES[route](_spec(name), tmp_path)
    digest = outcome if isinstance(outcome, str) else result_digest(outcome)
    assert digest == _serial_digest(name)


def _lines(path: Path) -> int:
    return len(path.read_text().splitlines())


def _done_keys(path: Path) -> list[str]:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [row["key"] for row in rows if row.get("type") == "done"]


def _stop_at_second_point(patch) -> None:
    """Make a serial sweep's replay raise Ctrl-C on its second point."""
    import repro.harness.replay as replay_module

    real_replay = replay_module.replay
    calls = []

    def stop_at_second_point(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:
            raise KeyboardInterrupt
        return real_replay(*args, **kwargs)

    patch.setattr(replay_module, "replay", stop_at_second_point)


class TestResumeWithoutTraceCache:
    """A point key names the captured log by content, never by the
    temporary directory an uncached log is spilled into."""

    def test_pool_journal_resume_skips_every_point(self, tmp_path):
        spec = _spec("exact")
        path = tmp_path / "journal.jsonl"
        with supervise(journal=FabricLedger(path)):
            first = spec.run(jobs=2)
        written = _lines(path)
        with supervise(journal=FabricLedger(path, resume=True)) as context:
            second = spec.run(jobs=2)
        assert context.counts.get("journal-skip") == len(spec.cache)
        assert _lines(path) == written
        assert result_digest(second) == result_digest(first)

    def test_pool_journal_resumes_a_sweep_stopped_partway(
        self, tmp_path, monkeypatch
    ):
        spec = _spec("exact", cache=SIZES)
        path = tmp_path / "journal.jsonl"
        with monkeypatch.context() as patch:
            _stop_at_second_point(patch)
            with pytest.raises(SweepInterrupted):
                with supervise(journal=FabricLedger(path)):
                    spec.run()
        finished = len(_done_keys(path))
        assert finished == 1
        with supervise(journal=FabricLedger(path, resume=True)) as context:
            results = spec.run(jobs=2)
        assert context.counts.get("journal-skip") == finished
        keys = _done_keys(path)
        assert len(keys) == len(set(keys)) == len(spec.cache)
        assert result_digest(results) == result_digest(spec.run())

    def test_captures_differing_in_a_capture_key_field_never_share_points(
        self, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        with supervise(journal=FabricLedger(path)):
            _spec("exact").run(jobs=2)
        with supervise(journal=FabricLedger(path, resume=True)) as context:
            _spec("exact", accesses=2048).run(jobs=2)
        assert "journal-skip" not in context.counts

    def test_guests_without_key_extra_are_keyed_by_their_arrays(self, tmp_path):
        from repro.harness.replay import replay_sweep, size_sweep_configs
        from repro.workloads.registry import get_workload

        workload = get_workload("FIMI")
        configs = size_sweep_configs([MB, 4 * MB])
        path = tmp_path / "journal.jsonl"
        with supervise(journal=FabricLedger(path)):
            replay_sweep(workload.synthetic_guest(accesses_per_thread=2048), 2, configs)
        with supervise(journal=FabricLedger(path, resume=True)) as context:
            replay_sweep(workload.synthetic_guest(accesses_per_thread=4096), 2, configs)
        assert "journal-skip" not in context.counts


def _record(kind: str, key: str | None = None, **fields) -> dict:
    row = {"schema": 3, "type": kind, **fields}
    if key is not None:
        row["key"] = key
    return row


def _point_record(key: str, index: int, **fields) -> dict:
    payload = base64.b85encode(pickle.dumps(("task", index), protocol=4))
    return _record("point", key, payload=payload.decode("ascii"), **fields)


#: The ``config`` record a shard run wrote first.
CONFIG = _record(
    "config", lease_ttl=30.0, heartbeat_every=10.0, poll_interval=0.05,
    retries=2, backoff_base=0.25, backoff_cap=8.0, quarantine_after=3,
)


def _serial_done_rows(spec: JobSpec, tmp_path: Path) -> tuple[list, list[dict]]:
    """Run ``spec`` serially under a journal: its results, and its
    ``done`` records in sweep order."""
    path = tmp_path / "serial.jsonl"
    with supervise(journal=FabricLedger(path)):
        results = spec.run()
    return results, [json.loads(line) for line in path.read_text().splitlines()[1:]]


def _resume_on_the_pool(spec: JobSpec, path: Path, rows: list[dict]):
    """Write ``rows`` as a ledger and resume ``spec`` from it on the
    pool: the results, the supervisor context and the appended records.
    The rows written stay untouched."""
    written = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    path.write_text(written)
    with supervise(journal=FabricLedger(path, resume=True)) as context:
        results = spec.run(jobs=2)
    text = path.read_text()
    assert text.startswith(written)
    appended = [json.loads(line) for line in text[len(written):].splitlines()]
    assert {row["type"] for row in appended} == {"done"}
    return results, context, appended


class TestResumeAcrossExecutors:
    """The removed shard executor journaled through the same file.  A
    ledger it left when a sweep stopped partway, one point done and the
    next still under a live lease, finishes on the pool: exactly the
    done point is skipped and every other point is recorded once."""

    def test_shard_ledger_resumes_on_the_pool(self, tmp_path):
        spec = _spec("exact", cache=SIZES)
        serial, done = _serial_done_rows(spec, tmp_path)
        k0, k1, k2, k3 = (row["key"] for row in done)
        rows = [{"format": 3}, CONFIG]
        rows += [_point_record(key, index) for index, key in enumerate((k0, k1, k2, k3))]
        rows += [
            _record("claimed", k0, worker="w1", expires=130.0, steal=False, time=100.0),
            {**done[0], "worker": "w1"},
            _record("claimed", k1, worker="w1", expires=131.0, steal=False, time=101.0),
            _record("heartbeat", k1, worker="w1", expires=141.0, time=111.0),
        ]
        path = tmp_path / "ledger.jsonl"
        results, context, appended = _resume_on_the_pool(spec, path, rows)
        assert context.counts.get("journal-skip") == 1
        assert sorted(row["key"] for row in appended) == sorted([k1, k2, k3])
        assert result_digest(results) == result_digest(serial)


class TestLedgerWithCheckpointFields:
    """Shard runs with the removed ``--checkpoint-dir`` flag wrote a
    ``checkpoint`` field on every ``point`` record.  Such a ledger
    still resumes: the field is ignored."""

    def test_point_records_with_a_checkpoint_field_still_resume(self, tmp_path):
        spec = _spec("exact", cache=SIZES)
        serial, done = _serial_done_rows(spec, tmp_path)
        k0, k1, k2, k3 = (row["key"] for row in done)
        ckpts = tmp_path / "ckpts"
        rows = [{"format": 3}]
        rows += [
            _point_record(key, index, checkpoint=str(ckpts / f"{key}.ckpt"))
            for index, key in enumerate((k0, k1, k2, k3))
        ]
        rows += [done[0], done[2]]
        path = tmp_path / "ledger.jsonl"
        results, context, appended = _resume_on_the_pool(spec, path, rows)
        assert context.counts.get("journal-skip") == 2
        assert sorted(row["key"] for row in appended) == sorted([k1, k3])
        assert result_digest(results) == result_digest(serial)


class TestLedgerWithRemovedRecordTypes:
    """Older builds journaled through the same file with eight more
    record types: ``config``, ``point`` (carrying a ``checkpoint`` field
    when a sweep ran with the removed ``--checkpoint-dir``), ``claimed``,
    ``heartbeat``, ``failed``, ``verified``, ``conflict`` and
    ``quarantined``.  Such a ledger resumes on the pool on exactly its
    ``done`` keys: every other record is read past."""

    def test_pool_resumes_on_exactly_the_done_keys(self, tmp_path):
        spec = _spec("exact", cache=SIZES)
        serial, done = _serial_done_rows(spec, tmp_path)
        k0, k1, k2, k3 = (row["key"] for row in done)
        # Points 0 and 2 finished; 1 failed once and 3 was quarantined
        # before the sweep stopped.
        ckpts = tmp_path / "ckpts"
        rows = [{"format": 3}, CONFIG]
        rows += [
            _point_record(key, index, checkpoint=str(ckpts / f"{key}.ckpt"))
            for index, key in enumerate((k0, k1, k2, k3))
        ]
        rows += [
            _record("claimed", k0, worker="w1", expires=130.0, steal=False, time=100.0),
            _record("heartbeat", k0, worker="w1", expires=140.0, time=110.0),
            {**done[0], "worker": "w1"},
            _record("claimed", k1, worker="w2", expires=130.0, steal=False, time=100.0),
            _record(
                "failed", k1, worker="w2", attempts=1, error="ValueError: x",
                retry_after=100.25, time=101.0,
            ),
            _record(
                "verified", k0, worker="w2", sha=done[0]["sha"],
                expected=done[0]["sha"],
            ),
            _record("claimed", k2, worker="w2", expires=135.0, steal=True, time=105.0),
            {**done[2], "worker": "w2"},
            _record("conflict", k2, worker="w3", sha="0" * 64, expected=done[2]["sha"]),
            _record("claimed", k3, worker="w1", expires=131.0, steal=False, time=101.0),
            _record("heartbeat", k3, worker="w1", expires=141.0, time=111.0),
            _record(
                "quarantined", k3, worker="w3", dead_workers=["w1", "w2", "w4"],
                time=150.0,
            ),
        ]
        path = tmp_path / "ledger.jsonl"
        results, context, appended = _resume_on_the_pool(spec, path, rows)
        assert context.counts.get("journal-skip") == 2
        assert sorted(row["key"] for row in appended) == sorted([k1, k3])
        assert result_digest(results) == result_digest(serial)
