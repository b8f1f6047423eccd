"""Route parity: every route that computes a job's result agrees.

One job spec must yield one ``result_digest`` whichever front door ran
it: ``JobSpec.run()`` serial or pooled, the same under ``supervise()``,
a supervised pool whose workers crash and hang under harness fault
injection, the shard fabric, the replay engine's per-event loop, a
``run_batch`` slice, or a ``JobServer`` job.  A journal written without
a trace cache must let a resumed run skip every point and append
nothing, and a sweep stopped on one executor must finish on the other.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.errors import SweepInterrupted
from repro.faults.spec import FaultSpec
from repro.harness.executors.base import FabricConfig
from repro.harness.executors.ledger import FabricLedger
from repro.harness.supervisor import SupervisorPolicy, supervise
from repro.serve.jobspec import JobSpec, result_digest, run_batch
from repro.serve.server import JobServer
from repro.trace.cache import TraceCache
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


def _shard(spec: JobSpec, tmp_path: Path):
    # No journal: each map runs its workers over a temporary ledger.
    # Journal-plus-fabric is covered by the resume tests below.
    return _supervised(spec, tmp_path, fabric=FabricConfig(shards=2, lease_ttl=10.0))


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
    "shard": _shard,
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

    def test_shard_ledger_resume_skips_every_point(self, tmp_path):
        spec = _spec("exact")
        path = tmp_path / "ledger.jsonl"
        with supervise(journal=FabricLedger(path), fabric=FabricConfig(shards=2)):
            first = spec.run()
        written = _lines(path)
        journal = FabricLedger(path, resume=True)
        with supervise(journal=journal, fabric=FabricConfig(shards=2)) as context:
            second = spec.run()
        assert context.counts.get("journal-skip") == len(spec.cache)
        assert "fabric-lease" not in context.counts
        assert _lines(path) == written
        assert result_digest(second) == result_digest(first)

    def test_shard_ledger_resumes_a_sweep_stopped_partway(self, tmp_path):
        spec = _spec("exact", cache=[MB, 2 * MB, 4 * MB, 8 * MB])
        path = tmp_path / "ledger.jsonl"

        def stop_after_first_result(backend, cycle):
            if any(ps.done for ps in backend.ledger.state.points.values()):
                raise KeyboardInterrupt

        # One shard, and every first attempt stalls for a second, so the
        # observer stops the sweep while the second point still sleeps.
        stopped = FabricConfig(
            shards=1, grace=0.1, observer=stop_after_first_result
        )
        stall = FaultSpec.parse("seed=1,hang=1,hang-seconds=1")
        with pytest.raises(SweepInterrupted):
            with supervise(
                journal=FabricLedger(path), fault_spec=stall, fabric=stopped
            ):
                spec.run()
        finished = len(_done_keys(path))
        assert 1 <= finished < len(spec.cache)
        journal = FabricLedger(path, resume=True)
        with supervise(journal=journal, fabric=FabricConfig(shards=2)) as context:
            results = spec.run()
        assert context.counts.get("journal-skip") == finished
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


class TestResumeAcrossExecutors:
    """One journal, whichever executor wrote it: a sweep stopped on one
    backend finishes on the other, skips exactly the points the journal
    holds results for, and records every point once."""

    SIZES = [MB, 2 * MB, 4 * MB, 8 * MB]

    def _check_resumed(self, spec, path, context, results, finished):
        assert context.counts.get("journal-skip") == finished
        keys = _done_keys(path)
        assert len(keys) == len(set(keys)) == len(spec.cache)
        assert result_digest(results) == result_digest(spec.run())

    def test_pool_journal_resumes_on_the_shard_fabric(self, tmp_path, monkeypatch):
        import repro.harness.replay as replay_module

        spec = _spec("exact", cache=self.SIZES)
        path = tmp_path / "journal.jsonl"
        real_replay = replay_module.replay
        calls = []

        def stop_at_second_point(*args, **kwargs):
            calls.append(None)
            if len(calls) > 1:
                raise KeyboardInterrupt
            return real_replay(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(replay_module, "replay", stop_at_second_point)
            with pytest.raises(SweepInterrupted):
                with supervise(journal=FabricLedger(path)):
                    spec.run()
        finished = len(_done_keys(path))
        assert finished == 1
        journal = FabricLedger(path, resume=True)
        with supervise(journal=journal, fabric=FabricConfig(shards=2)) as context:
            results = spec.run()
        self._check_resumed(spec, path, context, results, finished)

    def test_shard_ledger_resumes_on_the_pool(self, tmp_path):
        spec = _spec("exact", cache=self.SIZES)
        path = tmp_path / "journal.jsonl"

        def stop_after_first_result(backend, cycle):
            if any(ps.done for ps in backend.ledger.state.points.values()):
                raise KeyboardInterrupt

        stopped = FabricConfig(
            shards=1, grace=0.1, observer=stop_after_first_result
        )
        stall = FaultSpec.parse("seed=1,hang=1,hang-seconds=1")
        with pytest.raises(SweepInterrupted):
            with supervise(
                journal=FabricLedger(path), fault_spec=stall, fabric=stopped
            ):
                spec.run()
        finished = len(_done_keys(path))
        assert 1 <= finished < len(spec.cache)
        with supervise(journal=FabricLedger(path, resume=True)) as context:
            results = spec.run(jobs=2)
        self._check_resumed(spec, path, context, results, finished)


class TestLedgerWithCheckpointFields:
    """Fabric runs with the removed ``--checkpoint-dir`` flag wrote a
    ``checkpoint`` field on every ``point`` record.  Such a ledger
    still resumes: the field is ignored."""

    def test_point_records_with_a_checkpoint_field_still_resume(self, tmp_path):
        spec = _spec("exact", cache=[MB, 2 * MB, 4 * MB, 8 * MB])
        # A trace cache keeps each point's payload stable across runs,
        # so the resumed sweep claims the old records, field and all.
        cache = TraceCache(tmp_path / "traces")
        path = tmp_path / "ledger.jsonl"

        def stop_after_first_result(backend, cycle):
            if any(ps.done for ps in backend.ledger.state.points.values()):
                raise KeyboardInterrupt

        stopped = FabricConfig(
            shards=1, grace=0.1, observer=stop_after_first_result
        )
        stall = FaultSpec.parse("seed=1,hang=1,hang-seconds=1")
        with pytest.raises(SweepInterrupted):
            with supervise(
                journal=FabricLedger(path), fault_spec=stall, fabric=stopped
            ):
                spec.run(trace_cache=cache)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            if row.get("type") == "point":
                row["checkpoint"] = str(tmp_path / "ckpts" / f"{row['key']}.ckpt")
        path.write_text(
            "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        )
        finished = len(_done_keys(path))
        assert 1 <= finished < len(spec.cache)
        journal = FabricLedger(path, resume=True)
        with supervise(journal=journal, fabric=FabricConfig(shards=2)) as context:
            results = spec.run(trace_cache=cache)
        assert context.counts.get("journal-skip") == finished
        assert result_digest(results) == result_digest(spec.run())
