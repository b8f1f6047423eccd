"""The ``pool`` backend: the only process pool in the harness.

Wraps one :class:`~concurrent.futures.ProcessPoolExecutor`.  The
supervised pool loop (``repro.harness.supervisor._run_pool``) drives
it through ``submit``/``poll``/``respawn``/``cancel`` and reads its
answers as :class:`~repro.harness.executors.base.PointEvent` records,
the same records the shard backend reports.

One honest limitation is encoded here rather than hidden: when a pool
worker dies, CPython's pool breaks *entirely* — every in-flight future
fails with :class:`BrokenProcessPool`.  ``poll`` translates that into
one ``crash`` event per completed-dead future (those points plausibly
killed the worker and are charged an attempt), one ``lost`` event per
innocent survivor (re-run free of charge), and a ``respawn`` event
after the backend has already rebuilt the pool.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.errors import FaultInjectionError
from repro.harness.executors.base import PointEvent, SubmittedPoint


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
    """Abandon a pool, killing its workers (hung ones included)."""
    executor.shutdown(wait=False, cancel_futures=True)
    for process in pool_processes(executor):
        try:
            process.terminate()
        except (OSError, ValueError, AttributeError):
            pass


class LocalPoolExecutor:
    """``--executor pool``: worker processes on this machine."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self._points: dict[Future, SubmittedPoint] = {}

    def submit(self, point: SubmittedPoint) -> Future | None:
        """Start ``point``; None if the pool broke since the last poll.

        A worker that dies between two polls breaks the pool before
        its in-flight futures fail, and the pool then refuses new work.
        The refused point never started: the caller requeues it, and
        the next poll reports the casualties and rebuilds the pool.  A
        pool that broke with nothing in flight has no poll coming, so
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
        self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def cancel(self, grace: float = 5.0) -> None:
        terminate_pool(self._pool)
        self._points.clear()

    def close(self) -> None:
        # All points done; the workers are idle, so a waiting shutdown
        # is cheap and avoids racing the interpreter's atexit hook for
        # the executor's wakeup pipe.
        self._pool.shutdown(wait=True, cancel_futures=True)
