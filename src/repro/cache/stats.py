"""Cache performance counters.

Dragonhead's CC FPGAs maintain hit/miss counters that the CB board
collects; the figures of the paper are all derived from these counters
normalized by retired instructions (misses per 1000 instructions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _dict_delta(now: dict[int, int], before: dict[int, int]) -> dict[int, int]:
    """Per-core counter differences, dropping cores with no new activity."""
    delta: dict[int, int] = {}
    for core, count in now.items():
        changed = count - before.get(core, 0)
        if changed:
            delta[core] = changed
    return delta


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

    def note_batch(
        self,
        kinds: np.ndarray,
        cores: np.ndarray | int,
        hits: np.ndarray,
    ) -> None:
        """Account a whole chunk of access outcomes, vectorized.

        Equivalent to calling :meth:`note_access` once per access with
        ``kinds[i] == AccessKind.READ`` / ``cores[i]`` / ``hits[i]``,
        but using numpy reductions.  ``cores`` may be a scalar when the
        whole chunk was issued by one core (the emulator's DEX slices).
        """
        hits = np.asarray(hits, dtype=bool)
        if hits.size == 0:
            return
        key = (np.asarray(kinds) == int(AccessKind.READ)).astype(np.intp)
        key += 2 * np.asarray(cores, dtype=np.intp)
        size = int(key.max()) // 2 * 2 + 2
        self.note_counts(
            np.bincount(key, minlength=size).reshape(-1, 2).tolist(),
            np.bincount(key[~hits], minlength=size).reshape(-1, 2).tolist(),
        )

    def note_counts(self, accesses, misses) -> None:
        """Account outcomes already counted per core and access kind.

        ``accesses[core]`` and ``misses[core]`` are ``(writes, reads)``
        pairs: the accesses and misses of ``core`` by kind.  Per-core
        dicts keep ascending core order.
        """
        for core, ((writes, reads), (write_misses, read_misses)) in enumerate(
            zip(accesses, misses)
        ):
            total = writes + reads
            if not total:
                continue
            miss_count = write_misses + read_misses
            self.accesses += total
            self.reads += reads
            self.writes += writes
            self.hits += total - miss_count
            self.misses += miss_count
            self.read_misses += read_misses
            self.write_misses += write_misses
            _bump(self.per_core_accesses, core, total)
            if miss_count:
                _bump(self.per_core_misses, core, miss_count)

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

    def snapshot(self) -> "CacheStats":
        """Return an independent copy of the current counters."""
        return CacheStats(
            accesses=self.accesses,
            hits=self.hits,
            misses=self.misses,
            reads=self.reads,
            writes=self.writes,
            read_misses=self.read_misses,
            write_misses=self.write_misses,
            evictions=self.evictions,
            prefetches=self.prefetches,
            prefetch_hits=self.prefetch_hits,
            per_core_accesses=dict(self.per_core_accesses),
            per_core_misses=dict(self.per_core_misses),
        )

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier`` (window sampling).

        Per-core dictionaries are differenced like every other counter;
        cores with no activity inside the window are omitted, matching
        what :meth:`note_access` would have recorded during the window.
        """
        return CacheStats(
            accesses=self.accesses - earlier.accesses,
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            read_misses=self.read_misses - earlier.read_misses,
            write_misses=self.write_misses - earlier.write_misses,
            evictions=self.evictions - earlier.evictions,
            prefetches=self.prefetches - earlier.prefetches,
            prefetch_hits=self.prefetch_hits - earlier.prefetch_hits,
            per_core_accesses=_dict_delta(
                self.per_core_accesses, earlier.per_core_accesses
            ),
            per_core_misses=_dict_delta(self.per_core_misses, earlier.per_core_misses),
        )
