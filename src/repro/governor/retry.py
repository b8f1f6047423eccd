"""Bounded retry-with-backoff for transient I/O.

The platform's durable surfaces — the trace cache, the sweep journal,
the telemetry sinks — all end in a handful of ``write()``/``rename()``
calls that can fail *transiently*: an NFS server mid-failover returns
EIO, a contended lock returns EAGAIN, a busy volume returns EBUSY.
Before this module each surface treated any OSError as final; now they
share one policy: retry a short, bounded number of times with
exponential backoff, count every retry, and only then let the error
surface.

Two errno classes are deliberately *not* retried here:

* ``ENOSPC`` — a full disk does not heal by waiting; the trace cache
  answers it with LRU eviction (see :mod:`repro.governor.gc`) and the
  other surfaces let it propagate to their own degradation handling.
* anything non-transient (EACCES, EROFS, ...) — retrying a permission
  error is noise.

Every retry increments ``repro_io_retries_total{operation=...}``, so a
run that limped through a flaky volume says so in its metrics.
"""

from __future__ import annotations

import errno
import time
from typing import Callable, TypeVar

from repro.telemetry import runtime as telemetry

T = TypeVar("T")

#: Errno values worth waiting out: transient device errors, contention,
#: and interrupted calls.  ENOSPC is intentionally absent — see module
#: docstring.
TRANSIENT_ERRNOS = frozenset(
    {
        errno.EIO,
        errno.EAGAIN,
        errno.EBUSY,
        errno.EINTR,
        errno.EDEADLK,
    }
)

#: Default retry shape, shared by every caller unless overridden:
#: 3 re-attempts, 50 ms first backoff, doubling, capped at 1 s.
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 1.0


def is_transient(error: OSError) -> bool:
    """Whether an OSError is worth retrying (by errno)."""
    return error.errno in TRANSIENT_ERRNOS


def retry_io(
    operation: str,
    fn: Callable[[], T],
    retries: int = DEFAULT_RETRIES,
    backoff_base: float = DEFAULT_BACKOFF_BASE,
    backoff_cap: float = DEFAULT_BACKOFF_CAP,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run ``fn``, retrying transient OSErrors with bounded backoff.

    ``operation`` labels the retry counter (e.g. ``"ledger.append"``)
    so the metrics say *which* surface was flaky.  Non-transient
    OSErrors and non-OSErrors propagate immediately; a transient error
    that survives every retry propagates with its original traceback.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except OSError as error:
            if not is_transient(error):
                raise
            attempt += 1
            if attempt > retries:
                raise
            telemetry.counter(
                "repro_io_retries_total", operation=operation
            ).inc()
            sleep(min(backoff_cap, backoff_base * (2 ** (attempt - 1))))
