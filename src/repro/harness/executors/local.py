"""The local worker pool: the only process pool in the harness.

Each worker runs in its own *lane*, a single-worker
:class:`~concurrent.futures.ProcessPoolExecutor`.  The supervised pool
loop (``repro.harness.supervisor._run_pool``) drives the lanes through
``submit``/``poll``/``kill``/``cancel``/``close``, starts one attempt
at a point per free lane, and reads the answers as
:class:`PointEvent` records.

**One point per lane.**  CPython breaks a pool as a whole when one of
its workers dies and fails every future in flight on it.  A lane runs
one point at a time, so a dead worker fails only its own point: that
point is charged a ``crash`` and the lane is re-forked, while every
other lane's point keeps running.  A point that overruns ``--timeout``
is charged the same way: ``kill`` terminates only its lane.

**Pool lifetime.**  Workers fork once per process, not once per map.
A :class:`LocalPoolExecutor` takes the process's idle lanes when there
are as many as the map's worker count and they were forked under the
current telemetry session, and forks new lanes otherwise; its
``close`` parks the lanes idle again after a clean map.  At most one
set of lanes is parked: taking it empties the slot, so two maps running
at once on different threads never share workers.  The lanes are bound
to the telemetry session because a forked worker keeps the session it
forked under and writes its spans and window events into that
session's event log.  Lanes are dropped, never parked, on ``cancel`` (a
failed point, Ctrl-C, an expired deadline); the supervisor's memory
clamp terminates idle ones (:func:`release_idle_pool`); and
``ProcessPoolExecutor``'s own exit hook joins them when the interpreter
exits.  Until then idle workers keep their memory.  A worker that dies
while its lane sits idle breaks only that lane, which the next
``submit`` re-forks free of charge.

Every worker exits once the process that forked it dies, and ignores
SIGINT (see :func:`_init_worker`), so idle workers never outlive a
SIGKILLed parent and a terminal Ctrl-C reaches only the parent, whose
supervisor drains the sweep and terminates them.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.errors import FaultInjectionError
from repro.telemetry import runtime as telemetry

#: Seconds between a worker's checks that its parent is still alive.
PARENT_POLL_S = 0.2


@dataclass(frozen=True)
class PointEvent:
    """One thing that happened to a point since the last poll.

    Kinds:

    * ``done`` — the point completed; ``value`` holds the result.
    * ``error`` — the attempt raised; ``error`` holds the exception.
    * ``crash`` — the point's worker died under it; its lane has been
      re-forked.  Charged like an error.

    ``handle`` is the point's future, the key the supervisor's pool
    loop files it under.
    """

    kind: str
    handle: Future
    value: Any = None
    error: BaseException | None = None


def pool_processes(executor: ProcessPoolExecutor) -> list:
    """Worker processes of a pool, via its private ``_processes`` map.

    CPython offers no public way to enumerate (and therefore terminate)
    a pool's workers, so this reaches into ``_processes`` — but behind
    a guard: if a future CPython renames or retypes the attribute, the
    helper returns an empty list and the caller falls back to a plain
    ``shutdown(wait=False, cancel_futures=True)``, which leaks hung
    workers until process exit but can never crash the drain path.
    """
    processes = getattr(executor, "_processes", None)
    if not processes:
        return []
    try:
        return list(processes.values())
    except (TypeError, AttributeError, RuntimeError):
        return []


def terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Abandon a pool, killing its workers (hung ones included).

    The workers are listed before ``shutdown``, which drops the pool's
    ``_processes`` map.
    """
    processes = pool_processes(executor)
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError, AttributeError):
            pass


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _init_worker() -> None:
    """Pool initializer: never outlive the parent, never take Ctrl-C.

    A daemon thread exits the worker once ``os.getppid()`` changes, so
    a SIGKILLed parent leaves no worker blocked on the call queue.
    ``prctl(PR_SET_PDEATHSIG)`` would not do: it fires when the forking
    *thread* exits, and the job server forks from its executor thread.
    A terminal Ctrl-C reaches the whole process group; the parent's
    supervisor turns it into a drain that terminates the workers, so
    they ignore it.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()


def _run_point(task: Callable, item: Any, fault: str | None, hang_seconds: float):
    """Execute one grid point in a worker, applying any planned fault.

    An injected *crash* kills the worker process outright (the honest
    analog of a segfaulting host — it must surface as
    ``BrokenProcessPool``, not as a tidy exception); an injected *hang*
    stalls for ``hang_seconds`` before running the point, so an untimed
    sweep still finishes, merely late.
    """
    if fault == "crash":
        os._exit(73)
    elif fault == "hang":
        time.sleep(hang_seconds)
    return task(item)


def _fork_lane() -> ProcessPoolExecutor:
    """A new lane; its one worker forks at the lane's first submit."""
    return ProcessPoolExecutor(max_workers=1, initializer=_init_worker)


def _terminate_lanes(lanes: list[ProcessPoolExecutor]) -> None:
    for lane in lanes:
        terminate_pool(lane)


class _Parked(NamedTuple):
    """Idle lanes with the telemetry session they were forked under."""

    lanes: list[ProcessPoolExecutor]
    session: object


#: The idle lanes, parked by the last map that finished cleanly.
_idle: _Parked | None = None
_idle_lock = threading.Lock()


def _take_idle() -> _Parked | None:
    global _idle
    with _idle_lock:
        idle, _idle = _idle, None
    return idle


def release_idle_pool() -> None:
    """Terminate the idle lanes, if any are parked."""
    idle = _take_idle()
    if idle is not None:
        _terminate_lanes(idle.lanes)


class LocalPoolExecutor:
    """Worker processes on this machine, one lane each, reused across maps."""

    def __init__(self, workers: int) -> None:
        self._session = telemetry.current_session()
        #: Lane index of each point in flight.
        self._running: dict[Future, int] = {}
        idle = _take_idle()
        if (
            idle is not None
            and len(idle.lanes) == workers
            and idle.session is self._session
        ):
            self._lanes = idle.lanes
        else:
            if idle is not None:
                _terminate_lanes(idle.lanes)
            self._lanes = [_fork_lane() for _ in range(workers)]

    def _refork(self, lane: int) -> None:
        terminate_pool(self._lanes[lane])
        self._lanes[lane] = _fork_lane()

    def submit(
        self,
        task: Callable,
        item: Any,
        fault: str | None = None,
        hang_seconds: float = 0.0,
    ) -> Future:
        """Start one attempt at ``task(item)`` on a free lane.

        The caller keeps at most one point in flight per lane.
        ``fault``/``hang_seconds`` carry a planned harness fault for
        this attempt.  A lane whose worker died while it sat idle
        refuses the point; it is re-forked and the point runs there.
        """
        busy = set(self._running.values())
        lane = next(i for i in range(len(self._lanes)) if i not in busy)
        args = (_run_point, task, item, fault, hang_seconds)
        try:
            future = self._lanes[lane].submit(*args)
        except BrokenProcessPool:
            self._refork(lane)
            future = self._lanes[lane].submit(*args)
        self._running[future] = lane
        return future

    def poll(self, timeout: float | None) -> list[PointEvent]:
        if not self._running:
            return []
        done, _ = wait(
            set(self._running), timeout=timeout, return_when=FIRST_COMPLETED
        )
        events: list[PointEvent] = []
        for future in done:
            lane = self._running.pop(future)
            try:
                value = future.result(timeout=0)
            except BrokenProcessPool:
                self._refork(lane)
                events.append(
                    PointEvent(
                        kind="crash",
                        handle=future,
                        error=FaultInjectionError(
                            "worker process died mid-point"
                        ),
                    )
                )
            except Exception as error:
                events.append(PointEvent(kind="error", handle=future, error=error))
            else:
                events.append(PointEvent(kind="done", handle=future, value=value))
        return events

    def kill(self, future: Future) -> None:
        """Terminate the worker running ``future`` and re-fork its lane."""
        self._refork(self._running.pop(future))

    def cancel(self) -> None:
        _terminate_lanes(self._lanes)
        self._running.clear()

    def close(self) -> None:
        """Park the lanes idle for the next map; every point is done."""
        global _idle
        parked = _Parked(self._lanes, self._session)
        with _idle_lock:
            displaced, _idle = _idle, parked
        if displaced is not None:
            _terminate_lanes(displaced.lanes)
