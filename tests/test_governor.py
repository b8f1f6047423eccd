"""Tests for the resource governor (repro.governor).

Covers the budget/ambient-state layer, transient-I/O retry, the seeded
filesystem fault shim, quota-aware LRU eviction with pin/mmap safety,
ENOSPC evict-and-retry with the cache-off endgame, crash-debris GC,
deadline drain + resume, the memory clamp on supervised maps, and the
telemetry sinks' write-error accounting.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, DeadlineExpired, FaultInjectionError
from repro.governor import fsshim
from repro.governor import gc as governor_gc
from repro.governor.budget import (
    GovernorState,
    ResourceBudget,
    active_governor,
    govern,
)
from repro.governor.retry import TRANSIENT_ERRNOS, is_transient, retry_io
from repro.harness.supervisor import (
    SupervisorContext,
    SupervisorPolicy,
    supervise,
    supervised_map,
)
from repro.harness.executors.ledger import FabricLedger
from repro.telemetry import runtime as telemetry
from repro.telemetry.sinks import MAX_CONSECUTIVE_WRITE_ERRORS, JsonlSink
from repro.trace.cache import PINS_DIR, TraceCache, cache_key, pin_entry
from tests import tasks
from tests.processes import idle_pool_pids, wait_exited


@pytest.fixture(autouse=True)
def _disarm_fsshim():
    """No test leaves the fault shim armed for its neighbours."""
    yield
    fsshim.uninstall()


def make_entry(cache: TraceCache, tag: object, size: int = 4096) -> str:
    """Store one distinct entry; returns its key."""
    key = cache_key({"tag": tag})
    stored = cache.store(
        key, {"tag": str(tag)}, {"payload": np.zeros(size // 8, dtype=np.int64)}
    )
    assert stored is not None
    return key


def age_entry(cache: TraceCache, key: str, seconds_ago: float) -> None:
    """Back-date an entry's last-use stamp (LRU rank is directory mtime)."""
    entry = cache.root / key[:2] / key[2:]
    stamp = time.time() - seconds_ago
    os.utime(entry, (stamp, stamp))


# -- retry_io -----------------------------------------------------------


class TestRetryIO:
    def _flaky(self, failures: int, error: OSError):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise error
            return "done"

        return fn, calls

    def test_transient_error_is_retried_to_success(self):
        fn, calls = self._flaky(2, OSError(errno.EIO, "flaky"))
        sleeps: list[float] = []
        assert retry_io("test.op", fn, sleep=sleeps.append) == "done"
        assert calls["n"] == 3
        assert sleeps == [0.05, 0.1]  # exponential from the base

    def test_exhausted_retries_reraise_the_original_error(self):
        fn, calls = self._flaky(99, OSError(errno.EAGAIN, "still flaky"))
        with pytest.raises(OSError) as exc_info:
            retry_io("test.op", fn, retries=3, sleep=lambda _: None)
        assert exc_info.value.errno == errno.EAGAIN
        assert calls["n"] == 4  # first attempt + 3 retries

    def test_non_transient_error_is_not_retried(self):
        fn, calls = self._flaky(99, OSError(errno.EACCES, "denied"))
        with pytest.raises(OSError):
            retry_io("test.op", fn, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_enospc_is_deliberately_not_transient(self):
        assert errno.ENOSPC not in TRANSIENT_ERRNOS
        assert not is_transient(OSError(errno.ENOSPC, "full"))
        fn, calls = self._flaky(99, OSError(errno.ENOSPC, "full"))
        with pytest.raises(OSError):
            retry_io("test.op", fn, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_backoff_is_capped(self):
        fn, _ = self._flaky(99, OSError(errno.EIO, "flaky"))
        sleeps: list[float] = []
        with pytest.raises(OSError):
            retry_io("test.op", fn, retries=8, backoff_cap=0.2, sleep=sleeps.append)
        assert max(sleeps) == 0.2

    def test_retries_are_counted_per_operation(self):
        with telemetry.session():
            fn, _ = self._flaky(2, OSError(errno.EIO, "flaky"))
            retry_io("test.counted", fn, sleep=lambda _: None)
            assert (
                telemetry.registry().value(
                    "repro_io_retries_total", operation="test.counted"
                )
                == 2
            )


# -- the filesystem fault shim ------------------------------------------


class TestFsShim:
    def _deliveries(self, plan: fsshim.FsFaultPlan, site: str, calls: int):
        fsshim.install(plan)
        outcomes = []
        for _ in range(calls):
            try:
                fsshim.fault_point(site)
                outcomes.append(None)
            except OSError as error:
                outcomes.append(error.errno)
        delivered = fsshim.delivered()
        fsshim.uninstall()
        return outcomes, delivered

    def test_same_seed_same_faults(self):
        plan = fsshim.FsFaultPlan(seed=7, enospc=0.3, eio=0.3)
        first, _ = self._deliveries(plan, "trace-cache.store", 40)
        second, _ = self._deliveries(plan, "trace-cache.store", 40)
        assert first == second
        assert errno.ENOSPC in first and errno.EIO in first

    def test_different_sites_draw_independent_streams(self):
        plan = fsshim.FsFaultPlan(seed=7, enospc=0.5)
        store, _ = self._deliveries(plan, "trace-cache.store", 40)
        journal, _ = self._deliveries(plan, "ledger.append", 40)
        assert store != journal

    def test_limit_caps_total_deliveries(self):
        plan = fsshim.FsFaultPlan(seed=1, eio=1.0, limit=3)
        outcomes, delivered = self._deliveries(plan, "ledger.append", 10)
        assert len(delivered) == 3
        assert outcomes[3:] == [None] * 7

    def test_sites_filter_restricts_blast_radius(self):
        plan = fsshim.FsFaultPlan(
            seed=1, eio=1.0, sites=frozenset({"trace-cache.store"})
        )
        outcomes, delivered = self._deliveries(plan, "ledger.append", 5)
        assert outcomes == [None] * 5 and delivered == []

    def test_uninstalled_shim_is_silent(self):
        fsshim.uninstall()
        fsshim.fault_point("trace-cache.store")  # must not raise
        assert fsshim.delivered() == []

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param({"enospc": 1.5}, id="enospc=1.5"),
            pytest.param({"sites": frozenset({"not-a-site"})}, id="sites=not-a-site"),
            pytest.param({"limit": -1}, id="limit=-1"),
        ],
    )
    def test_bad_plans_are_rejected(self, fields):
        with pytest.raises(FaultInjectionError):
            fsshim.FsFaultPlan(**fields)


# -- budgets and the ambient governor -----------------------------------


class TestBudget:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"disk_quota": 0},
            {"disk_quota": -1},
            {"mem_budget": 0},
            {"deadline_s": 0.0},
            {"deadline_s": -5.0},
        ],
    )
    def test_non_positive_budgets_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResourceBudget(**kwargs)

    def test_empty_budget_installs_nothing(self):
        assert not ResourceBudget().any_set
        with govern(ResourceBudget()) as governor:
            assert governor is None
            assert active_governor() is None
        with govern(None) as governor:
            assert governor is None

    def test_govern_installs_and_restores(self):
        assert active_governor() is None
        with govern(ResourceBudget(disk_quota=1024)) as governor:
            assert governor is not None
            assert active_governor() is governor
        assert active_governor() is None

    def test_records_carry_the_governor_source(self):
        from repro.faults.report import GOVERNOR

        state = GovernorState(ResourceBudget(disk_quota=1024))
        state.record("cache-off", detail="nothing evictable")
        (record,) = state.records
        assert record.source == GOVERNOR
        assert record.kind == "cache-off"
        assert state.counts == {"cache-off": 1}
        assert state.describe() == "cache-off=1"

    def test_note_deadline_latches(self):
        state = GovernorState(ResourceBudget(deadline_s=100.0))
        state.note_deadline(3, 10)
        state.note_deadline(5, 10)  # a second observer must not duplicate
        assert len(state.records) == 1
        assert state.counts == {"deadline": 1}

    def test_deadline_clock(self):
        state = GovernorState(ResourceBudget(deadline_s=0.05))
        assert not state.deadline_expired()
        assert state.deadline_remaining() <= 0.05
        time.sleep(0.06)
        assert state.deadline_expired()
        assert state.deadline_remaining() == 0.0
        assert GovernorState(ResourceBudget(disk_quota=1)).deadline_remaining() is None

    def test_memory_pressure_latches_and_records(self):
        readings = iter([100, 10_000, 50])  # maxrss never really drops; latch anyway
        state = GovernorState(
            ResourceBudget(mem_budget=1000), maxrss_fn=lambda: next(readings)
        )
        assert not state.memory_pressure()  # 100 < 1000
        assert state.memory_pressure()  # 10_000 breaches
        assert state.memory_pressure()  # latched: the 50 reading is not consulted
        assert len(state.records) == 1
        assert state.records[0].kind == "mem-pressure"

    def test_no_mem_budget_means_no_pressure(self):
        state = GovernorState(
            ResourceBudget(disk_quota=1), maxrss_fn=lambda: 1 << 60
        )
        assert not state.memory_pressure()


# -- LRU eviction under quota -------------------------------------------


class TestEviction:
    def test_lru_order_oldest_evicted_first(self, tmp_path):
        cache = TraceCache(tmp_path)
        old = make_entry(cache, "old")
        mid = make_entry(cache, "mid")
        new = make_entry(cache, "new")
        age_entry(cache, old, 300)
        age_entry(cache, mid, 200)
        age_entry(cache, new, 100)
        entries = governor_gc.scan_entries(cache)
        quota = max(e.bytes for e in entries) + 1  # room for exactly one
        evicted = governor_gc.enforce_quota(cache, quota)
        assert evicted == 2
        assert cache.stats.evictions == 2
        assert cache.load(new) is not None
        assert cache.load(old) is None and cache.load(mid) is None

    def test_hit_refreshes_recency(self, tmp_path):
        cache = TraceCache(tmp_path)
        old = make_entry(cache, "old")
        new = make_entry(cache, "new")
        age_entry(cache, old, 300)
        age_entry(cache, new, 100)
        assert cache.load(old) is not None  # the touch re-ranks it newest
        entries = governor_gc.scan_entries(cache)
        governor_gc.enforce_quota(cache, max(e.bytes for e in entries) + 1)
        assert cache.load(old) is not None
        assert cache.load(new) is None

    def test_pinned_entry_is_skipped(self, tmp_path):
        cache = TraceCache(tmp_path)
        pinned = make_entry(cache, "pinned")
        other = make_entry(cache, "other")
        age_entry(cache, pinned, 300)  # pinned is the LRU candidate
        age_entry(cache, other, 100)
        with pin_entry(cache.root, pinned):
            governor_gc.enforce_quota(cache, 1)
        assert cache.load(pinned) is not None
        assert cache.load(other) is None

    def test_dead_pid_pins_are_reaped(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = make_entry(cache, "stale")
        pins = cache.root / PINS_DIR
        pins.mkdir(exist_ok=True)
        # A pid from a long-dead reader: spawn-and-reap a child for a
        # pid the kernel has definitely retired from this test's view.
        child = multiprocessing.Process(target=lambda: None)
        child.start()
        child.join()
        (pins / f"{key}.{child.pid}.deadbeef.pin").write_text(str(child.pid))
        governor_gc.enforce_quota(cache, 1)
        assert cache.load(key) is None  # the stale pin did not protect it

    def test_protected_key_is_skipped(self, tmp_path):
        cache = TraceCache(tmp_path)
        keep = make_entry(cache, "keep")
        drop = make_entry(cache, "drop")
        age_entry(cache, keep, 300)
        age_entry(cache, drop, 100)
        governor_gc.enforce_quota(cache, 1, protect={keep})
        assert cache.load(keep) is not None
        assert cache.load(drop) is None

    def test_established_mmap_survives_eviction(self, tmp_path):
        """Rename-then-unlink: a reader holding mappings keeps its data."""
        cache = TraceCache(tmp_path)
        key = cache_key({"tag": "mapped"})
        payload = np.arange(10_000, dtype=np.int64)
        cache.store(key, {"tag": "mapped"}, {"payload": payload})
        _meta, arrays = cache.load(key)
        mapped = arrays["payload"]
        assert isinstance(mapped, np.memmap)
        governor_gc.enforce_quota(cache, 1)
        assert cache.load(key) is None  # evicted for new readers...
        assert np.array_equal(mapped, payload)  # ...but the mapping lives

    def test_eviction_mid_read_is_a_clean_miss(self, tmp_path):
        """A reader losing the race regenerates; it never sees corruption."""
        cache = TraceCache(tmp_path)
        key = make_entry(cache, "raced")
        entries = governor_gc.scan_entries(cache)
        governor_gc.evict_entry(cache, entries[0])
        assert cache.load(key) is None
        assert cache.stats.corrupt == 0 and cache.stats.quarantined == 0

    def test_debris_counts_against_the_quota(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = make_entry(cache, "live")
        wreck = cache.root / ".tmp-deadbeef-1-cafef00d"
        wreck.mkdir()
        (wreck / "half-written.npy").write_bytes(b"x" * 65536)
        governor_gc.enforce_quota(cache, 65536)  # debris alone exceeds it
        assert cache.load(key) is None

    def test_usage_gauges_track_the_scan(self, tmp_path):
        with telemetry.session():
            cache = TraceCache(tmp_path)
            make_entry(cache, "a")
            make_entry(cache, "b")
            entries, total = governor_gc.cache_usage(cache)
            assert len(entries) == 2 and total > 0
            registry = telemetry.registry()
            assert registry.value("repro_trace_cache_entries") == 2
            assert registry.value("repro_trace_cache_bytes") == sum(
                e.bytes for e in entries
            )


def _concurrent_evictor(args: tuple[str, int]) -> None:
    root, quota = args
    cache = TraceCache(root)
    governor_gc.enforce_quota(cache, quota)


class TestConcurrentEviction:
    def test_racing_evictors_never_corrupt_survivors(self, tmp_path):
        """Two processes enforcing one quota: survivors stay loadable.

        The losers' renames fail ENOENT and are skipped; whatever set
        of entries remains, every one of them must still validate —
        no torn manifests, no quarantines.
        """
        cache = TraceCache(tmp_path)
        keys = [make_entry(cache, i, size=8192) for i in range(8)]
        for rank, key in enumerate(keys):
            age_entry(cache, key, 800 - rank * 100)
        entries = governor_gc.scan_entries(cache)
        quota = 3 * max(e.bytes for e in entries) + 1
        with multiprocessing.Pool(2) as pool:
            pool.map(_concurrent_evictor, [(str(tmp_path), quota)] * 2)
        survivor_count = 0
        fresh = TraceCache(tmp_path)
        for key in keys:
            if fresh.load(key) is not None:
                survivor_count += 1
        assert fresh.stats.corrupt == 0 and fresh.stats.quarantined == 0
        assert 1 <= survivor_count <= 3
        _, usage = governor_gc.cache_usage(fresh)
        assert usage <= quota


# -- store under disk pressure ------------------------------------------


class TestStoreUnderPressure:
    def test_enospc_evicts_lru_and_retries(self, tmp_path):
        cache = TraceCache(tmp_path)
        victim = make_entry(cache, "victim")
        age_entry(cache, victim, 300)
        fsshim.install(
            fsshim.FsFaultPlan(
                seed=1, enospc=1.0, limit=1, sites=frozenset({"trace-cache.store"})
            )
        )
        key = cache_key({"tag": "squeezed"})
        stored = cache.store(
            key, {"tag": "squeezed"}, {"payload": np.ones(64, dtype=np.int64)}
        )
        assert stored is not None  # the retry after eviction succeeded
        assert cache.stats.enospc == 1
        assert cache.stats.evictions == 1
        assert cache.load(victim) is None
        assert cache.load(key) is not None
        assert not cache.off

    def test_enospc_with_nothing_evictable_latches_cache_off(self, tmp_path):
        fsshim.install(
            fsshim.FsFaultPlan(
                seed=1, enospc=1.0, sites=frozenset({"trace-cache.store"})
            )
        )
        with govern(ResourceBudget(disk_quota=1 << 20)) as governor:
            cache = TraceCache(tmp_path, disk_quota=1 << 20)
            key = cache_key({"tag": "doomed"})
            stored = cache.store(
                key, {"tag": "doomed"}, {"payload": np.ones(8, dtype=np.int64)}
            )
            assert stored is None
            assert cache.off
            # Later stores short-circuit; loads of existing data still work.
            assert cache.store(key, {"tag": "doomed"}, {}) is None
            assert any(r.kind == "cache-off" for r in governor.records)
        fsshim.uninstall()
        assert cache.load(key) is None  # never landed — a miss, not an error

    def test_transient_eio_is_absorbed_by_retry(self, tmp_path):
        fsshim.install(
            fsshim.FsFaultPlan(
                seed=1, eio=1.0, limit=2, sites=frozenset({"trace-cache.store"})
            )
        )
        cache = TraceCache(tmp_path)
        key = make_entry(cache, "flaky-volume")
        assert len(fsshim.delivered()) == 2
        assert cache.load(key) is not None
        assert not cache.off

    def test_quota_is_enforced_after_each_store(self, tmp_path):
        cache = TraceCache(tmp_path, disk_quota=12 * 1024)
        for i in range(6):
            key = make_entry(cache, i, size=4096)
            age_entry(cache, key, 600 - i * 100)
        _, usage = governor_gc.cache_usage(cache)
        assert usage <= 12 * 1024
        assert cache.stats.evictions >= 1


# -- crash-debris collection --------------------------------------------


class TestCollectGarbage:
    def _wreckage(self, cache: TraceCache):
        key = make_entry(cache, "sound")
        entry = cache.root / key[:2] / key[2:]
        quarantined = entry.with_name(entry.name + ".corrupt")
        entry.rename(quarantined)
        orphan = cache.root / ".tmp-deadbeef-99-cafef00d"
        orphan.mkdir()
        (orphan / "partial.npy").write_bytes(b"x" * 128)
        return [quarantined, orphan]

    def test_aged_debris_is_collected_and_counted(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        debris = self._wreckage(cache)
        keep = make_entry(cache, "live")
        for path in debris:
            stamp = time.time() - 14 * 24 * 3600
            os.utime(path, (stamp, stamp))
        removed = governor_gc.collect_garbage(cache)
        assert removed == {"gc_quarantined": 1, "gc_orphans": 1}
        assert cache.stats.gc_quarantined == 1
        assert cache.stats.gc_orphans == 1
        for path in debris:
            assert not path.exists()
        assert cache.load(keep) is not None  # live entries are untouchable

    def test_young_debris_is_left_alone(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        debris = self._wreckage(cache)
        removed = governor_gc.collect_garbage(cache)
        assert removed == {"gc_quarantined": 0, "gc_orphans": 0}
        for path in debris:
            assert path.exists()

    def test_age_threshold_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(governor_gc.GC_AGE_ENV, "0.0")
        cache = TraceCache(tmp_path / "cache")
        self._wreckage(cache)
        removed = governor_gc.collect_garbage(cache)
        assert sum(removed.values()) == 2


# -- stats byte-identity ------------------------------------------------


class TestStatsDescribe:
    def test_ungoverned_line_is_byte_identical_to_the_old_format(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.load(make_entry(cache, "x"))
        assert (
            cache.stats.describe()
            == "hits=1 misses=0 stores=1 corrupt=0 quarantined=0"
        )

    def test_governance_counters_appear_only_when_nonzero(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.stats.count("evictions")
        assert cache.stats.describe().endswith("evictions=1")


# -- deadline drain and resume ------------------------------------------


def _napping_task(item: int) -> int:
    time.sleep(0.03)
    return item * item


class TestDeadline:
    def test_serial_deadline_drains_and_resume_finishes(self, tmp_path, capsys):
        grid = list(range(20))
        path = tmp_path / "journal.jsonl"
        with govern(ResourceBudget(deadline_s=0.15)):
            with pytest.raises(DeadlineExpired) as exc_info:
                with supervise(SupervisorPolicy(), journal=FabricLedger(path)):
                    supervised_map(_napping_task, grid, jobs=1)
        assert 0 < exc_info.value.completed < exc_info.value.total
        assert "deadline expired" in capsys.readouterr().err
        journal = FabricLedger(path, resume=True)
        with supervise(SupervisorPolicy(), journal=journal) as context:
            resumed = supervised_map(_napping_task, grid, jobs=1)
        assert context.counts["journal-skip"] == exc_info.value.completed
        assert resumed == [i * i for i in grid]

    def test_pool_deadline_drains_and_resume_finishes(self, tmp_path, capsys):
        grid = [
            ("FIMI", 2, 1 << (20 + i % 3), 64) for i in range(24)
        ]
        task = tasks.slow_mpki_point
        path = tmp_path / "journal.jsonl"
        with govern(ResourceBudget(deadline_s=0.5)):
            with pytest.raises(DeadlineExpired) as exc_info:
                with supervise(SupervisorPolicy(), journal=FabricLedger(path)):
                    supervised_map(task, grid, jobs=2)
        assert exc_info.value.completed < exc_info.value.total
        assert "deadline expired" in capsys.readouterr().err
        baseline = supervised_map(task, grid, context=SupervisorContext())
        with supervise(SupervisorPolicy(), journal=FabricLedger(path, resume=True)):
            resumed = supervised_map(task, grid, jobs=2)
        assert resumed == baseline

    def test_deadline_is_noted_once_in_the_governor(self):
        grid = list(range(8))
        with govern(ResourceBudget(deadline_s=0.05)) as governor:
            with pytest.raises(DeadlineExpired):
                supervised_map(_napping_task, grid, jobs=1)
            assert governor.counts.get("deadline") == 1
            (record,) = governor.records
            assert record.kind == "deadline"

    def test_no_deadline_means_no_interference(self):
        with govern(ResourceBudget(disk_quota=1 << 30)):
            assert supervised_map(_napping_task, [1, 2, 3], jobs=1) == [1, 4, 9]


# -- the memory clamp ---------------------------------------------------


def _pid_task(item: int) -> int:
    return os.getpid()


class TestMemoryClamp:
    def test_breach_clamps_supervised_maps_to_serial(self):
        budget = ResourceBudget(mem_budget=1024)
        with govern(budget, maxrss_fn=lambda: 1 << 40) as governor:
            pids = supervised_map(_pid_task, list(range(4)), jobs=2)
        assert set(pids) == {os.getpid()}  # no worker processes were forked
        assert governor.counts.get("mem-pressure") == 1

    def test_breach_terminates_the_idle_pool(self):
        supervised_map(_pid_task, list(range(4)), jobs=2)
        idle = idle_pool_pids()
        assert idle  # the pooled map left its workers idle
        budget = ResourceBudget(mem_budget=1024)
        with govern(budget, maxrss_fn=lambda: 1 << 40):
            pids = supervised_map(_pid_task, list(range(4)), jobs=2)
        assert set(pids) == {os.getpid()}
        assert idle_pool_pids() == set()
        assert wait_exited(idle) == []

    def test_within_budget_pools_normally(self):
        budget = ResourceBudget(mem_budget=1 << 60)
        with govern(budget, maxrss_fn=lambda: 1024) as governor:
            pids = supervised_map(_pid_task, list(range(4)), jobs=2)
        assert set(pids) != {os.getpid()}
        assert governor.records == []


# -- telemetry sink write-error accounting ------------------------------


class TestSinkWriteErrors:
    def test_jsonl_sink_counts_failures_and_self_disables(self, tmp_path, capsys):
        with telemetry.session():
            sink = JsonlSink(tmp_path / "events.jsonl")
            fsshim.install(
                fsshim.FsFaultPlan(
                    seed=1, eio=1.0, sites=frozenset({"telemetry.emit"})
                )
            )
            for i in range(MAX_CONSECUTIVE_WRITE_ERRORS + 3):
                sink.emit({"event": "tick", "i": i})  # must never raise
            fsshim.uninstall()
            assert sink._disabled
            assert (
                telemetry.registry().value(
                    "repro_telemetry_write_errors_total", sink="jsonl"
                )
                == MAX_CONSECUTIVE_WRITE_ERRORS
            )
            assert "disabled" in capsys.readouterr().err
            sink.close()

    def test_jsonl_sink_recovers_between_transient_failures(self, tmp_path):
        with telemetry.session():
            sink = JsonlSink(tmp_path / "events.jsonl")
            # Fault only the first append attempt; retry absorbs it.
            fsshim.install(
                fsshim.FsFaultPlan(
                    seed=1, eio=1.0, limit=1, sites=frozenset({"telemetry.emit"})
                )
            )
            for i in range(4):
                sink.emit({"event": "tick", "i": i})
            sink.close()
            fsshim.uninstall()
            assert not sink._disabled
            lines = (tmp_path / "events.jsonl").read_text().splitlines()
            assert [json.loads(line)["i"] for line in lines] == [0, 1, 2, 3]


# -- CLI budget construction --------------------------------------------


class TestBuildBudget:
    def _args(self, **overrides):
        import argparse

        base = {"disk_quota": None, "mem_budget": None, "deadline": None}
        base.update(overrides)
        return argparse.Namespace(**base)

    def test_no_flags_no_budget(self):
        from repro.harness.cli import build_budget

        assert build_budget(self._args()) is None

    def test_flags_parse_human_sizes(self):
        from repro.harness.cli import build_budget

        budget = build_budget(
            self._args(disk_quota="2GB", mem_budget="512MB", deadline=3600.0)
        )
        assert budget.disk_quota == 2 * 1024**3
        assert budget.mem_budget == 512 * 1024**2
        assert budget.deadline_s == 3600.0
