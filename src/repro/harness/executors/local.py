"""The local worker pool: the only process pool in the harness.

Wraps one :class:`~concurrent.futures.ProcessPoolExecutor`.  The
supervised pool loop (``repro.harness.supervisor._run_pool``) drives
it through ``submit``/``poll``/``respawn``/``cancel``/``close``, hands
it one :class:`SubmittedPoint` per attempt and reads its answers as
:class:`PointEvent` records.

**Pool lifetime.**  Workers fork once per process, not once per map.
A :class:`LocalPoolExecutor` takes the process's idle pool when that
pool has the map's worker count and was forked under the current
telemetry session, and forks a new pool otherwise; its ``close``
parks the pool idle again after a clean map.  At most one pool is parked:
taking it empties the slot, so two maps running at once on different
threads never share workers.  The pool is bound to the telemetry
session because a forked worker keeps the session it forked under and
writes its spans and window events into that session's event log.  A
pool is dropped, never parked, on ``cancel`` (a failed point, Ctrl-C,
an expired deadline); ``respawn`` replaces it; the supervisor's memory
clamp terminates the idle one (:func:`release_idle_pool`); and
``ProcessPoolExecutor``'s own exit hook joins it when the interpreter
exits.  Until then its idle workers keep their memory.

Every worker exits once the process that forked it dies, and ignores
SIGINT (see :func:`_init_worker`), so idle workers never outlive a
SIGKILLed parent and a terminal Ctrl-C reaches only the parent, whose
supervisor drains the sweep and terminates them.

One honest limitation is encoded here rather than hidden: when a pool
worker dies, CPython's pool breaks *entirely*, and it fails every
in-flight future with :class:`BrokenProcessPool` at once.  ``poll``
reports each of those futures as a ``crash`` event, so every point in
flight is charged an attempt, not only the one whose worker died.  With
two points in flight on two workers, one point calling ``os._exit``
counts ``worker-crash=2``, and with ``retries=0`` the sweep fails on
whichever point the loop reads first, innocent or not.  The pool does
not know which worker ran which point, so it cannot tell the killer
from its victims.  A ``lost`` event (re-run free of charge) goes only
to a future still pending when ``poll`` saw the break, which CPython's
all-at-once failure makes rare.  A ``respawn`` event follows after the
backend has already rebuilt the pool.  A pool that broke while idle is
rebuilt by the next ``submit``, free of charge.
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
class SubmittedPoint:
    """One attempt at one grid point.

    ``fault``/``hang_seconds`` carry a planned harness fault for this
    attempt.
    """

    task: Callable
    item: Any
    fault: str | None = None
    hang_seconds: float = 0.0


@dataclass(frozen=True)
class PointEvent:
    """One thing that happened on the pool since the last poll.

    Kinds:

    * ``done`` — a point completed; ``value`` holds the result.
    * ``error`` — an attempt raised; ``error`` holds the exception.
    * ``crash`` — the pool broke under the point; charged like an
      error (see the module docstring for who gets charged).
    * ``lost`` — the point was still pending when the pool broke;
      re-run without charging an attempt.
    * ``respawn`` — the pool was rebuilt after a break.

    ``handle`` is the point's future, the key the supervisor's pool
    loop files it under; ``respawn`` carries ``handle=None``.
    """

    kind: str
    handle: Any = None
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


class _Parked(NamedTuple):
    """An idle pool with the worker count and telemetry session it
    was forked with."""

    pool: ProcessPoolExecutor
    workers: int
    session: object


#: The idle pool, parked by the last map that finished cleanly.
_idle: _Parked | None = None
_idle_lock = threading.Lock()


def _take_idle() -> _Parked | None:
    global _idle
    with _idle_lock:
        idle, _idle = _idle, None
    return idle


def release_idle_pool() -> None:
    """Terminate the idle pool, if one is parked."""
    idle = _take_idle()
    if idle is not None:
        terminate_pool(idle.pool)


class LocalPoolExecutor:
    """Worker processes on this machine, reused across maps."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._points: dict[Future, SubmittedPoint] = {}
        idle = _take_idle()
        if (
            idle is not None
            and idle.workers == workers
            and idle.session is telemetry.current_session()
        ):
            self._pool, self._session = idle.pool, idle.session
        else:
            if idle is not None:
                terminate_pool(idle.pool)
            self._fork()

    def _fork(self) -> None:
        self._session = telemetry.current_session()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_init_worker
        )

    def submit(self, point: SubmittedPoint) -> Future | None:
        """Start ``point``; None if the pool broke since the last poll.

        A worker that dies between two polls breaks the pool before
        its in-flight futures fail, and the pool then refuses new work.
        The refused point never started: the caller requeues it, and
        the next poll reports the casualties and rebuilds the pool.  A
        pool that broke with nothing in flight (a worker that died
        while the pool sat idle between maps) has no poll coming, so
        it is rebuilt here.
        """
        # Imported here to avoid a module cycle: the supervisor imports
        # this backend at module level.
        from repro.harness.supervisor import _run_point

        args = (
            _run_point,
            point.task,
            point.item,
            point.fault,
            point.hang_seconds,
        )
        try:
            future = self._pool.submit(*args)
        except BrokenProcessPool:
            if self._points:
                return None
            self.respawn()
            future = self._pool.submit(*args)
        self._points[future] = point
        return future

    def poll(self, timeout: float | None) -> list[PointEvent]:
        if not self._points:
            return []
        done, _ = wait(
            set(self._points), timeout=timeout, return_when=FIRST_COMPLETED
        )
        events: list[PointEvent] = []
        broken = False
        for future in done:
            self._points.pop(future)
            try:
                value = future.result(timeout=0)
            except BrokenProcessPool:
                broken = True
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
        if broken:
            # The whole pool is unusable.  A future the break has not
            # failed yet re-runs free; CPython usually fails them all.
            for future in list(self._points):
                events.append(PointEvent(kind="lost", handle=future))
            self.respawn()
            events.append(PointEvent(kind="respawn"))
        return events

    def respawn(self) -> None:
        terminate_pool(self._pool)
        self._points.clear()
        self._fork()

    def cancel(self) -> None:
        terminate_pool(self._pool)
        self._points.clear()

    def close(self) -> None:
        """Park the pool idle for the next map; every point is done."""
        global _idle
        parked = _Parked(self._pool, self.workers, self._session)
        with _idle_lock:
            displaced, _idle = _idle, parked
        if displaced is not None:
            terminate_pool(displaced.pool)
