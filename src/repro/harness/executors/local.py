"""The ``pool`` backend: the only process pool in the harness.

Wraps one :class:`~concurrent.futures.ProcessPoolExecutor`.  The
supervised pool loop (``repro.harness.supervisor._run_pool``) drives
it through ``submit``/``poll``/``respawn``/``cancel``/``close`` and
reads its answers as :class:`~repro.harness.executors.base.PointEvent`
records, the same records the shard backend reports.

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
worker dies, CPython's pool breaks *entirely* — every in-flight future
fails with :class:`BrokenProcessPool`.  ``poll`` translates that into
one ``crash`` event per completed-dead future (those points plausibly
killed the worker and are charged an attempt), one ``lost`` event per
innocent survivor (re-run free of charge), and a ``respawn`` event
after the backend has already rebuilt the pool.  A pool that broke
while idle is rebuilt by the next ``submit``, free of charge.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import NamedTuple

from repro.errors import FaultInjectionError
from repro.harness.executors.base import PointEvent, SubmittedPoint
from repro.telemetry import runtime as telemetry

#: Seconds between a worker's checks that its parent is still alive.
PARENT_POLL_S = 0.2


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
    """``--executor pool``: worker processes on this machine."""

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
            # The whole pool is unusable; survivors were not at fault.
            for future in list(self._points):
                events.append(PointEvent(kind="lost", handle=future))
            self.respawn()
            events.append(PointEvent(kind="respawn"))
        return events

    def respawn(self) -> None:
        terminate_pool(self._pool)
        self._points.clear()
        self._fork()

    def cancel(self, grace: float = 5.0) -> None:
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
