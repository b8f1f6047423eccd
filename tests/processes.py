"""Helpers for tests that watch worker processes by pid."""

from __future__ import annotations

import time


def exited(pid: int) -> bool:
    """Whether ``pid`` has exited.

    A zombie counts as exited: a container's PID 1 may never reap the
    orphans it inherits.
    """
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            stat = handle.read()
    except OSError:
        return True
    # The state letter follows the parenthesised command name.
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def wait_exited(pids, timeout: float = 10.0) -> list[int]:
    """Wait up to ``timeout`` seconds for every pid to exit; the survivors."""
    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if not exited(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if not exited(pid)]
    return alive


def lane_pids(lanes) -> set[int]:
    """Worker pids of a list of worker lanes."""
    from repro.harness.executors import local

    return {
        process.pid for lane in lanes for process in local.pool_processes(lane)
    }


def idle_pool_pids() -> set[int]:
    """Worker pids of the lanes parked idle between maps (empty if none)."""
    from repro.harness.executors import local

    idle = local._idle
    if idle is None:
        return set()
    return lane_pids(idle.lanes)
