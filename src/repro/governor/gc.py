"""Quota-aware garbage collection for the trace cache.

The content-addressed trace cache (:mod:`repro.trace.cache`) was
append-only: every captured log stayed forever, quarantined
``.corrupt`` entries piled up as evidence nobody collected, and a
crashed writer's ``.tmp-*`` staging directory leaked.  A long-running
service cannot run on a cache that only grows.  This module adds the
missing half of the cache's lifecycle:

* **LRU eviction under a disk quota** — entries are ranked by their
  directory mtime (touched on every cache hit, so it is a last-use
  stamp), and the oldest unpinned entries are evicted until usage fits.
  Content addressing makes eviction always-safe for correctness: a
  future reader of an evicted key simply misses and regenerates.
* **Pin-aware eviction** — readers pin a key for the validate-and-mmap
  window (see :func:`repro.trace.cache.pin_entry`); the evictor skips
  pinned keys, so a reader is never yanked between checksum
  verification and ``np.load``.  Readers that already hold mappings
  need no pin: eviction renames the entry directory aside and *then*
  unlinks it, and POSIX keeps established mappings alive after unlink.
* **Crash-debris collection** — age-thresholded removal of quarantined
  ``.corrupt`` entries and orphaned ``.tmp-*``/``.evict-*`` staging
  directories, all counted in :class:`~repro.trace.cache.TraceCacheStats`.

Eviction is concurrency-safe by construction: the only mutating step
is one atomic ``os.rename`` per entry, so two processes enforcing the
same quota race harmlessly — the loser's rename fails with ENOENT and
it moves on.  No manifest is ever rewritten in place.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.telemetry import runtime as telemetry
from repro.trace.cache import (
    PINS_DIR,
    QUARANTINE_SUFFIX,
    TraceCache,
    pinned_keys,
)

#: Default age (seconds) a quarantined entry or orphaned staging dir
#: must reach before the debris collector removes it — old enough that
#: no live run still owns it.
DEFAULT_GC_AGE_S = 7 * 24 * 3600.0

#: Environment override for that age, so CI (and impatient operators)
#: can collect young debris.
GC_AGE_ENV = "REPRO_GC_AGE_S"


def gc_age_s() -> float:
    value = os.environ.get(GC_AGE_ENV)
    return float(value) if value else DEFAULT_GC_AGE_S


@dataclass(frozen=True)
class EntryInfo:
    """One complete cache entry as the evictor sees it."""

    key: str
    path: Path
    mtime: float
    bytes: int


def _tree_bytes(path: Path) -> int:
    """Total file bytes under ``path`` (missing files tolerated)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except OSError:
                continue
    return total


def _subdirs(path: Path) -> Iterable[os.DirEntry]:
    try:
        with os.scandir(path) as it:
            yield from [entry for entry in it]
    except OSError:
        return


def scan_entries(cache: TraceCache) -> list[EntryInfo]:
    """Every published entry in the cache, with size and last-use stamp.

    Quarantined ``.corrupt`` directories and root-level staging
    directories are *not* entries; they are accounted separately by
    :func:`debris_bytes` and collected by :func:`collect_garbage`.
    """
    entries: list[EntryInfo] = []
    for fanout in _subdirs(cache.root):
        if not fanout.is_dir() or len(fanout.name) != 2:
            continue
        for child in _subdirs(Path(fanout.path)):
            if not child.is_dir() or child.name.endswith(QUARANTINE_SUFFIX):
                continue
            try:
                mtime = child.stat().st_mtime
            except OSError:
                continue  # concurrently evicted or quarantined
            entries.append(
                EntryInfo(
                    key=fanout.name + child.name,
                    path=Path(child.path),
                    mtime=mtime,
                    bytes=_tree_bytes(Path(child.path)),
                )
            )
    return entries


def debris_bytes(cache: TraceCache) -> int:
    """Bytes held by quarantine, staging leftovers, and pins.

    All of it counts against the quota — a cache drowning in ``.corrupt``
    specimens is over budget even if its live entries are small.
    """
    total = 0
    for top in _subdirs(cache.root):
        name = top.name
        if top.is_dir() and (
            name.startswith(".tmp-")
            or name.startswith(".evict-")
            or name == PINS_DIR
        ):
            total += _tree_bytes(Path(top.path))
        elif top.is_dir() and len(name) == 2:
            for child in _subdirs(Path(top.path)):
                if child.is_dir() and child.name.endswith(QUARANTINE_SUFFIX):
                    total += _tree_bytes(Path(child.path))
    return total


def cache_usage(cache: TraceCache) -> tuple[list[EntryInfo], int]:
    """``(entries, total_bytes)`` for the governed footprint.

    The footprint is the trace cache, entries plus debris.  Publishes
    the ``repro_trace_cache_bytes`` and ``repro_trace_cache_entries``
    gauges as a side effect (free: the walk already happened).
    """
    entries = scan_entries(cache)
    entry_bytes = sum(info.bytes for info in entries)
    total = entry_bytes + debris_bytes(cache)
    telemetry.gauge("repro_trace_cache_bytes").set(float(entry_bytes))
    telemetry.gauge("repro_trace_cache_entries").set(float(len(entries)))
    return entries, total


def evict_entry(cache: TraceCache, info: EntryInfo) -> int:
    """Evict one entry; returns bytes freed (0 if a race lost it first).

    Rename-then-unlink: one atomic ``os.rename`` moves the directory
    out of the key's address, *then* the moved tree is deleted.  A
    concurrent reader either still holds its established mappings
    (safe after unlink) or observes a clean miss — never a
    half-deleted entry under the key.
    """
    trash = cache.root / f".evict-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    try:
        os.rename(info.path, trash)
    except OSError:
        return 0  # another evictor (or a quarantine) won the race
    freed = _tree_bytes(trash)
    shutil.rmtree(trash, ignore_errors=True)
    cache.stats.count("evictions")
    return freed


def enforce_quota(
    cache: TraceCache,
    quota_bytes: int,
    protect: frozenset[str] | set[str] = frozenset(),
) -> int:
    """Evict LRU entries until the governed footprint fits the quota.

    ``protect`` keys (typically the entry just stored — evicting your
    own working set would thrash) and pinned keys are skipped.
    Returns the number of entries evicted.  If everything evictable is
    gone and usage still exceeds the quota, the overage stands — the
    caller's ENOSPC handling (or the operator) owns that endgame.
    """
    entries, total = cache_usage(cache)
    if total <= quota_bytes:
        return 0
    pinned = pinned_keys(cache.root)
    evicted = 0
    for info in sorted(entries, key=lambda e: (e.mtime, e.key)):
        if total <= quota_bytes:
            break
        if info.key in pinned or info.key in protect:
            continue
        freed = evict_entry(cache, info)
        if freed:
            evicted += 1
            total -= freed
        else:
            # The entry vanished under us — a racing evictor (or a
            # quarantine) already removed it.  Its bytes are out of the
            # footprint either way; without this credit two evictors
            # racing on one quota would each keep walking the LRU list
            # and between them empty the cache.
            total -= info.bytes
    if evicted:
        # Re-publish the gauges from a fresh scan so they track
        # reality, not an arithmetic estimate.
        cache_usage(cache)
    return evicted


def evict_for_enospc(
    cache: TraceCache, protect: frozenset[str] | set[str] = frozenset()
) -> bool:
    """Free space for a store that just hit ENOSPC: evict one LRU entry.

    Returns True if an entry was evicted (the store should retry),
    False when nothing evictable remains (the store should fall back
    to cache-off).
    """
    pinned = pinned_keys(cache.root)
    for info in sorted(scan_entries(cache), key=lambda e: (e.mtime, e.key)):
        if info.key in pinned or info.key in protect:
            continue
        if evict_entry(cache, info):
            return True
    return False


def collect_garbage(
    cache: TraceCache,
    max_age_s: float | None = None,
    now: float | None = None,
) -> dict[str, int]:
    """Remove aged crash debris; returns ``{category: count}``.

    Two categories, both age-thresholded (a *young* ``.corrupt`` entry
    is evidence someone may still want; a young ``.tmp-*`` may belong
    to a live writer):

    * ``gc_quarantined`` — ``<entry>.corrupt`` quarantine directories;
    * ``gc_orphans`` — root-level ``.tmp-*`` staging and ``.evict-*``
      trash directories a crashed process never cleaned up.
    """
    age = gc_age_s() if max_age_s is None else max_age_s
    cutoff = (time.time() if now is None else now) - age
    removed = {"gc_quarantined": 0, "gc_orphans": 0}

    def _aged(path: str) -> bool:
        try:
            return os.stat(path).st_mtime <= cutoff
        except OSError:
            return False

    for top in _subdirs(cache.root):
        name = top.name
        if top.is_dir() and (name.startswith(".tmp-") or name.startswith(".evict-")):
            if _aged(top.path):
                shutil.rmtree(top.path, ignore_errors=True)
                cache.stats.count("gc_orphans")
                removed["gc_orphans"] += 1
        elif top.is_dir() and len(name) == 2:
            for child in _subdirs(Path(top.path)):
                if (
                    child.is_dir()
                    and child.name.endswith(QUARANTINE_SUFFIX)
                    and _aged(child.path)
                ):
                    shutil.rmtree(child.path, ignore_errors=True)
                    cache.stats.count("gc_quarantined")
                    removed["gc_quarantined"] += 1
    return removed
