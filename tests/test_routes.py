"""Route parity: every route that computes a job's result agrees.

One job spec must yield one ``result_digest`` whichever front door ran
it: ``JobSpec.run()`` serial or pooled, the same under ``supervise()``,
the shard fabric, a ``run_batch`` slice, or a ``JobServer`` job.  A
journal or shard ledger written without a trace cache must let a
resumed run skip every point and append nothing.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.errors import SweepInterrupted
from repro.faults.spec import FaultSpec
from repro.harness.executors.base import FabricConfig
from repro.harness.supervisor import SupervisorPolicy, SweepJournal, supervise
from repro.serve.jobspec import JobSpec, result_digest, run_batch
from repro.serve.server import JobServer

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


def _shard(spec: JobSpec, tmp_path: Path):
    fabric = FabricConfig(
        shards=2, lease_ttl=10.0, ledger_path=str(tmp_path / "ledger.jsonl")
    )
    return _supervised(spec, tmp_path, fabric=fabric)


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
    "shard": _shard,
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


class TestResumeWithoutTraceCache:
    """A point key names the captured log by content, never by the
    temporary directory an uncached log is spilled into."""

    def test_pool_journal_resume_skips_every_point(self, tmp_path):
        spec = _spec("exact")
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal, supervise(journal=journal):
            first = spec.run(jobs=2)
        written = _lines(path)
        with SweepJournal(path, resume=True) as journal:
            with supervise(journal=journal) as context:
                second = spec.run(jobs=2)
        assert context.counts.get("journal-skip") == len(spec.cache)
        assert _lines(path) == written
        assert result_digest(second) == result_digest(first)

    def test_shard_ledger_resume_skips_every_point(self, tmp_path):
        spec = _spec("exact")
        path = tmp_path / "ledger.jsonl"
        with supervise(fabric=FabricConfig(shards=2, ledger_path=str(path))):
            first = spec.run()
        written = _lines(path)
        resumed = FabricConfig(shards=2, ledger_path=str(path), resume=True)
        with supervise(fabric=resumed) as context:
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
            shards=1,
            ledger_path=str(path),
            grace=0.1,
            observer=stop_after_first_result,
        )
        stall = FaultSpec.parse("seed=1,hang=1,hang-seconds=1")
        with pytest.raises(SweepInterrupted):
            with supervise(fault_spec=stall, fabric=stopped):
                spec.run()
        finished = sum(
            json.loads(line).get("type") == "done"
            for line in path.read_text().splitlines()
        )
        assert 1 <= finished < len(spec.cache)
        resumed = FabricConfig(shards=2, ledger_path=str(path), resume=True)
        with supervise(fabric=resumed) as context:
            results = spec.run()
        assert context.counts.get("journal-skip") == finished
        assert result_digest(results) == result_digest(spec.run())

    def test_captures_differing_in_a_capture_key_field_never_share_points(
        self, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal, supervise(journal=journal):
            _spec("exact").run(jobs=2)
        with SweepJournal(path, resume=True) as journal:
            with supervise(journal=journal) as context:
                _spec("exact", accesses=2048).run(jobs=2)
        assert "journal-skip" not in context.counts

    def test_guests_without_key_extra_are_keyed_by_their_arrays(self, tmp_path):
        from repro.harness.replay import replay_sweep, size_sweep_configs
        from repro.workloads.registry import get_workload

        workload = get_workload("FIMI")
        configs = size_sweep_configs([MB, 4 * MB])
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal, supervise(journal=journal):
            replay_sweep(workload.synthetic_guest(accesses_per_thread=2048), 2, configs)
        with SweepJournal(path, resume=True) as journal:
            with supervise(journal=journal) as context:
                replay_sweep(
                    workload.synthetic_guest(accesses_per_thread=4096), 2, configs
                )
        assert "journal-skip" not in context.counts
