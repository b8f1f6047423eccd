"""Cache performance counters.

Dragonhead's CC FPGAs maintain hit/miss counters that the CB board
collects; the figures of the paper are all derived from these counters
normalized by retired instructions (misses per 1000 instructions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.trace.record import AccessKind


def _bump(counts: dict[int, int], core: int, n: int) -> None:
    """Add ``n`` to a core's count, keeping the keys in ascending order.

    Every route into a bank's counters (a batched replay, a DEX slice
    at a time, one access at a time) then builds the same dict, byte
    for byte, whatever order the cores first reach the bank in.
    """
    if core in counts:
        counts[core] += n
        return
    resort = bool(counts) and core < next(reversed(counts))
    counts[core] = n
    if resort:
        items = sorted(counts.items())
        counts.clear()
        counts.update(items)


@dataclass(slots=True)
class CacheStats:
    """Hit/miss counters for one cache (or one emulator bank)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    evictions: int = 0
    prefetches: int = 0
    prefetch_hits: int = 0
    per_core_accesses: dict[int, int] = field(default_factory=dict)
    per_core_misses: dict[int, int] = field(default_factory=dict)

    @property
    def miss_ratio(self) -> float:
        """Misses per access (0 when no accesses were observed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_ratio(self) -> float:
        return 1.0 - self.miss_ratio if self.accesses else 0.0

    def mpki(self, instructions: int) -> float:
        """Misses per 1000 instructions, the paper's y-axis metric."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / instructions

    def apki(self, instructions: int) -> float:
        """Accesses per 1000 instructions (Table 2's DL1 accesses column)."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.accesses / instructions

    def note_access(self, core: int, is_read: bool, hit: bool) -> None:
        """Account one access outcome."""
        self.accesses += 1
        if is_read:
            self.reads += 1
        else:
            self.writes += 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            if is_read:
                self.read_misses += 1
            else:
                self.write_misses += 1
        _bump(self.per_core_accesses, core, 1)
        if not hit:
            _bump(self.per_core_misses, core, 1)

    def conservation_violations(self, label: str = "") -> list[str]:
        """Conservation identities this counter block must satisfy.

        Returns a human-readable description per violated identity
        (empty list == consistent).  The identities assume a demand-only
        access stream — the emulator banks never prefetch, so every
        access is a read or a write, every access hits or misses, and an
        eviction can only be caused by a miss fill.  A prefetching
        wrapper installs lines outside :meth:`note_access` and must not
        be audited with these identities.
        """
        prefix = f"{label}: " if label else ""
        violations: list[str] = []
        if self.hits + self.misses != self.accesses:
            violations.append(
                f"{prefix}hits+misses != accesses "
                f"({self.hits}+{self.misses} != {self.accesses})"
            )
        if self.reads + self.writes != self.accesses:
            violations.append(
                f"{prefix}reads+writes != accesses "
                f"({self.reads}+{self.writes} != {self.accesses})"
            )
        if self.read_misses + self.write_misses != self.misses:
            violations.append(
                f"{prefix}read_misses+write_misses != misses "
                f"({self.read_misses}+{self.write_misses} != {self.misses})"
            )
        if self.evictions > self.misses:
            violations.append(
                f"{prefix}evictions > misses ({self.evictions} > {self.misses})"
            )
        core_accesses = sum(self.per_core_accesses.values())
        if core_accesses != self.accesses:
            violations.append(
                f"{prefix}per-core access sum != accesses "
                f"({core_accesses} != {self.accesses})"
            )
        core_misses = sum(self.per_core_misses.values())
        if core_misses != self.misses:
            violations.append(
                f"{prefix}per-core miss sum != misses "
                f"({core_misses} != {self.misses})"
            )
        for core, misses in self.per_core_misses.items():
            if misses > self.per_core_accesses.get(core, 0):
                violations.append(
                    f"{prefix}core {core} misses > accesses "
                    f"({misses} > {self.per_core_accesses.get(core, 0)})"
                )
        return violations

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the sum of two counter sets (bank aggregation)."""
        merged = CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            read_misses=self.read_misses + other.read_misses,
            write_misses=self.write_misses + other.write_misses,
            evictions=self.evictions + other.evictions,
            prefetches=self.prefetches + other.prefetches,
            prefetch_hits=self.prefetch_hits + other.prefetch_hits,
        )
        for src in (self, other):
            for core, n in src.per_core_accesses.items():
                merged.per_core_accesses[core] = merged.per_core_accesses.get(core, 0) + n
            for core, n in src.per_core_misses.items():
                merged.per_core_misses[core] = merged.per_core_misses.get(core, 0) + n
        return merged


def note_lines(
    blocks: Sequence[CacheStats],
    lines: np.ndarray,
    kinds: np.ndarray,
    cores: np.ndarray | int,
    miss_at: np.ndarray,
) -> None:
    """Account a batch of line accesses over ``B = len(blocks)`` blocks.

    Access ``i`` counts in block ``lines[i] & (B - 1)`` (the kernel
    :func:`~repro.cache.fastlru.probe_lines` sent it to) as a read when
    ``kinds[i] == AccessKind.READ``, by core ``cores[i]``, and as a miss
    when ``i`` is in ``miss_at``.  ``cores`` may be a scalar when one
    core issued the whole batch.  Equivalent, block by block and field
    by field, to one :meth:`CacheStats.note_access` per access.

    One bincount keyed by (block, core, read) counts the accesses and a
    second over the keys at the miss positions counts the misses.  The
    key takes the narrowest unsigned type that holds it (one byte up to
    32 cores over four blocks).
    """
    if not lines.size:
        return
    nblocks = len(blocks)
    ncores = int(np.max(cores)) + 1
    size = nblocks * ncores * 2
    key = lines.astype(np.min_scalar_type(size - 1))
    key &= nblocks - 1
    key *= ncores
    key += cores
    key *= 2
    key += kinds == int(AccessKind.READ)
    shape = (nblocks, ncores, 2)
    accesses = np.bincount(key, minlength=size).reshape(shape).tolist()
    misses = np.bincount(key[miss_at], minlength=size).reshape(shape).tolist()
    for stats, block_accesses, block_misses in zip(blocks, accesses, misses):
        # Per core in ascending order: (writes, reads) accesses and misses.
        for core, ((writes, reads), (write_misses, read_misses)) in enumerate(
            zip(block_accesses, block_misses)
        ):
            total = writes + reads
            if not total:
                continue
            miss_count = write_misses + read_misses
            stats.accesses += total
            stats.reads += reads
            stats.writes += writes
            stats.hits += total - miss_count
            stats.misses += miss_count
            stats.read_misses += read_misses
            stats.write_misses += write_misses
            _bump(stats.per_core_accesses, core, total)
            if miss_count:
                _bump(stats.per_core_misses, core, miss_count)
