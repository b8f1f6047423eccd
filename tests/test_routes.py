"""Route parity: every route that computes a job's result agrees.

One job spec must yield one ``result_digest`` whichever route ran it.
A *cell* is one (spec, route) pair; it passes when the route's digest
equals a plain serial ``spec.run()``.

Specs, all FIMI on 2 cores over 1 MB and 4 MB:

* ``exact`` -- a synthetic capture, 4,096 accesses per thread;
* ``lenient-inject`` -- ``exact``, lenient, under bus fault injection;
* ``audit`` -- ``exact`` under the full invariant audit;
* ``kernel`` -- the instrumented kernel's capture;
* ``sampled`` -- ``exact`` sampled at ``1024,4`` (8 intervals);
* ``sampled-degenerate`` -- ``exact`` sampled at ``1m`` (one interval).

Routes:

* ``run-pool`` -- ``spec.run(jobs=2)``;
* ``supervised-serial`` and ``supervised-pool`` -- the same under
  ``supervise()``;
* ``supervised-pool-faults`` -- a supervised pool whose workers crash
  or hang under harness fault injection; at least one fault fires;
* ``per-event`` -- the replay engine's per-event loop;
* ``batch-slice`` -- the spec's slice of a ``run_batch`` behind a rider,
  whose own slice matches its solo run;
* ``served`` -- a ``JobServer`` job that ran in a batch of 2 with a
  rider sharing its capture;
* ``served-unbatched`` -- the same two jobs with batching off, each in
  a batch of 1;
* ``warm-trace-cache`` and ``warm-trace-cache-pool`` -- a second run,
  serial and then on the pool, over the trace cache the first run
  filled; every load hits;
* ``resumed`` -- a journaled serial sweep stopped by Ctrl-C at its
  second point, resumed on the pool, skipping the one finished point;
* ``quota-pressure`` -- a run into a trace cache that already holds
  another capture, under a quota of 1.5 times the larger entry, with
  ENOSPC and EIO injected at its stores: the quota evicts, the faults
  are absorbed and the cache stays on.

Skipped cells, each with the reason its route cannot exercise it:

* sampled specs on ``supervised-pool-faults``: sampled passes never
  reach the pool;
* ``sampled`` on ``per-event``: representatives replay only through
  ``emulate_stream``;
* sampled specs on ``resumed``: ``--sample`` refuses ``--journal``.

Beside the matrix: a journal written without a trace cache lets a
resumed run skip every point and append nothing, and a ledger the
removed shard executor left, with the record types it wrote, resumes on
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
from repro.governor import fsshim
from repro.governor import gc as governor_gc
from repro.harness.executors.ledger import FabricLedger
from repro.harness.supervisor import SupervisorPolicy, supervise
from repro.serve.jobspec import JobSpec, result_digest, run_batch
from repro.serve.server import JobServer
from repro.trace.cache import TraceCache
from tests.per_event import per_event_replay

MB = 1024 * 1024

EXACT = {
    "workload": "FIMI",
    "cores": 2,
    "cache": [MB, 4 * MB],
    "source": "synthetic",
    "accesses": 4096,
}

SPECS = {
    "exact": EXACT,
    "lenient-inject": {
        **EXACT,
        "lenient": True,
        "inject": "seed=42,drop-data=0.002,drop-msg=0.05",
    },
    "audit": {**EXACT, "audit": "full"},
    "kernel": {**EXACT, "source": "kernel"},
    "sampled": {**EXACT, "sample": "1024,4"},
    "sampled-degenerate": {**EXACT, "sample": "1m"},
}

SAMPLED = ("sampled", "sampled-degenerate")

#: Cells a route cannot exercise, with the reason.
SKIPS = {
    **{
        (name, "supervised-pool-faults"): "sampled passes never reach the pool"
        for name in SAMPLED
    },
    ("sampled", "per-event"): "representatives replay only through emulate_stream",
    **{(name, "resumed"): "--sample refuses --journal" for name in SAMPLED},
}


#: Four sizes, for the ledgers of sweeps stopped partway (below).
SIZES = [MB, 2 * MB, 4 * MB, 8 * MB]


def _spec(name: str, **overrides) -> JobSpec:
    return JobSpec.from_json({**SPECS[name], **overrides})


def _rider(spec: JobSpec, cache: list[int]) -> JobSpec:
    """A job sharing ``spec``'s capture and replay pass, not its sizes."""
    return JobSpec.from_json({**spec.to_json(), "cache": cache})


def _supervised(spec: JobSpec, tmp_path: Path, jobs: int | None = None):
    with supervise(SupervisorPolicy()):
        return spec.run(jobs=jobs)


def _supervised_pool_faults(spec: JobSpec, tmp_path: Path):
    # Which points crash or hang depends on the point keys, so the mix
    # differs per spec; every spec draws at least one fault at seed 2.
    faults = FaultSpec.parse("seed=2,crash=0.5,hang=0.5,hang-seconds=0.05")
    with supervise(SupervisorPolicy(backoff_base=0.01), fault_spec=faults) as context:
        results = spec.run(jobs=2)
    injected = context.counts.get("worker-crash-injected", 0)
    injected += context.counts.get("worker-hang-injected", 0)
    assert injected >= 1
    return results


def _per_event(spec: JobSpec, tmp_path: Path):
    # Serial, so every point replays in this process, through the snooper.
    with per_event_replay() as snoopers:
        results = spec.run()
    assert len(snoopers) == len(spec.cache)
    assert all(snooper.chunks for snooper in snoopers)
    return results


def _batch_slice(spec: JobSpec, tmp_path: Path):
    # The rider in front puts the spec's results at slots 1 and 2 of
    # the pooled pass, not 0 and 1.
    rider = _rider(spec, [16 * MB, MB])
    rider_results, results = run_batch([rider, spec])
    assert result_digest(rider_results) == result_digest(rider.run())
    return results


def _served(spec: JobSpec, tmp_path: Path, batching: bool = True):
    # Both jobs are queued before the worker starts, so a coalescing
    # server must take them as one batch.
    server = JobServer(batching=batching)
    try:
        response, status = server.submit(
            {"spec": spec.to_json(), "mode": "interactive"}
        )
        assert status == 202
        rider, _ = server.submit({"spec": _rider(spec, [16 * MB]).to_json()})
        server.start_worker()
        job = server.get_job(response["job_id"], wait=120)
        assert job.state == "done", job.error
        assert server.get_job(rider["job_id"], wait=120).state == "done"
        assert job.batch_size == (2 if batching else 1)
        assert job.summary["configs"][0]["mpki"] > 0
        return job.digest
    finally:
        server.shutdown()


def _warm_trace_cache(spec: JobSpec, tmp_path: Path, jobs: int | None = None):
    cache = TraceCache(tmp_path / "cache")
    cold = spec.run(trace_cache=cache)
    hits, misses = cache.stats.hits, cache.stats.misses
    warm = spec.run(trace_cache=cache, jobs=jobs)
    assert cache.stats.hits > hits
    assert cache.stats.misses == misses
    assert result_digest(cold) == result_digest(warm)
    return warm


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


def _resumed(spec: JobSpec, tmp_path: Path):
    path = tmp_path / "journal.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        _stop_at_second_point(patch)
        with pytest.raises(SweepInterrupted):
            with supervise(journal=FabricLedger(path)):
                spec.run()
    assert len(_done_keys(path)) == 1
    with supervise(journal=FabricLedger(path, resume=True)) as context:
        results = spec.run(jobs=2)
    assert context.counts.get("journal-skip") == 1
    keys = _done_keys(path)
    assert len(keys) == len(set(keys)) == len(spec.cache)
    return results


def _quota_pressure(spec: JobSpec, tmp_path: Path):
    # Either capture can be the larger entry (the 2-core kernel capture
    # outweighs the 4-core one), so a scratch cache sizes both.
    other = JobSpec.from_json({**spec.to_json(), "cores": 4})
    sizing = TraceCache(tmp_path / "sizing")
    for job in (other, spec):
        job.run(trace_cache=sizing)
    quota = 3 * max(entry.bytes for entry in governor_gc.scan_entries(sizing)) // 2
    cache = TraceCache(tmp_path / "cache", disk_quota=quota)
    other.run(trace_cache=cache)
    # At seed 1 the first store draws ENOSPC and its retry EIO; two
    # ENOSPC in a row would leave nothing to evict and latch the cache off.
    fsshim.install(
        fsshim.FsFaultPlan(
            seed=1, enospc=0.5, eio=0.5, limit=2,
            sites=frozenset({"trace-cache.store"}),
        )
    )
    try:
        results = spec.run(trace_cache=cache)
        delivered = fsshim.delivered()
    finally:
        fsshim.uninstall()
    assert cache.stats.evictions >= 1
    assert len(delivered) >= 1
    assert not cache.off
    assert governor_gc.cache_usage(cache)[1] <= quota
    return results


ROUTES = {
    "run-pool": lambda spec, tmp_path: spec.run(jobs=2),
    "supervised-serial": _supervised,
    "supervised-pool": functools.partial(_supervised, jobs=2),
    "supervised-pool-faults": _supervised_pool_faults,
    "per-event": _per_event,
    "batch-slice": _batch_slice,
    "served": _served,
    "served-unbatched": functools.partial(_served, batching=False),
    "warm-trace-cache": _warm_trace_cache,
    "warm-trace-cache-pool": functools.partial(_warm_trace_cache, jobs=2),
    "resumed": _resumed,
    "quota-pressure": _quota_pressure,
}


@functools.lru_cache(maxsize=None)
def _serial_digest(name: str) -> str:
    return result_digest(_spec(name).run())


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", SPECS)
def test_route_digest_matches_serial_run(name, route, tmp_path):
    if (name, route) in SKIPS:
        pytest.skip(SKIPS[name, route])
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
