"""Set-associative cache model.

This is the functional cache that everything else builds on: the
Dragonhead emulator banks, the L1/LLC hierarchy, and the prefetching
wrapper.  It is functional (hit/miss only, no timing), exactly like the
FPGA emulator it models — Dragonhead is a *passive* device that snoops
bus transactions and computes statistics without influencing execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.cache.fastlru import FastLRUKernel
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.cache.stats import CacheStats
from repro.trace.record import AccessKind, TraceChunk
from repro.units import format_size, is_power_of_two


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry and policy of one cache.

    Attributes:
        size: total capacity in bytes.
        line_size: cache-line size in bytes.
        associativity: ways per set (use :meth:`fully_associative` to
            construct a cache with a single set).
        policy: replacement policy name (``lru`` default, matching
            Dragonhead).
        name: label used in reports.
    """

    size: int
    line_size: int = 64
    associativity: int = 16
    policy: str = "lru"
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size <= 0 or self.line_size <= 0 or self.associativity <= 0:
            raise ConfigurationError(
                f"cache geometry must be positive: size={self.size} "
                f"line={self.line_size} assoc={self.associativity}"
            )
        if not is_power_of_two(self.line_size):
            raise ConfigurationError(f"line size must be a power of two, got {self.line_size}")
        if self.size % (self.line_size * self.associativity):
            raise ConfigurationError(
                f"size {format_size(self.size)} is not divisible by "
                f"line_size*associativity = {self.line_size * self.associativity}"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(
                f"number of sets must be a power of two, got {self.num_sets}"
            )

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @classmethod
    def fully_associative(cls, size: int, line_size: int = 64, name: str = "cache") -> "CacheConfig":
        """A single-set cache, equivalent to the stack-distance model."""
        return cls(
            size=size,
            line_size=line_size,
            associativity=size // line_size,
            policy="lru",
            name=name,
        )

    def describe(self) -> str:
        return (
            f"{self.name}: {format_size(self.size)}, {self.line_size}B lines, "
            f"{self.associativity}-way, {self.policy.upper()}"
        )


class SetAssociativeCache:
    """A functional set-associative cache.

    The per-access entry point is :meth:`access`; bulk trace processing
    goes through :meth:`access_chunk`, which converts addresses to line
    numbers vectorized and then applies the (inherently sequential)
    replacement updates.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        if config.policy.lower() == "lru":
            # LRU traffic goes through the batched kernel; it implements
            # the full ReplacementPolicy interface, so the scalar paths
            # (and the layers that inspect recency order) are unchanged.
            self._policy: ReplacementPolicy = FastLRUKernel(
                config.num_sets, config.associativity
            )
        else:
            self._policy = make_policy(
                config.policy, config.num_sets, config.associativity
            )
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1

    # -- core operations ------------------------------------------------

    def access(
        self, address: int, kind: AccessKind = AccessKind.READ, core: int = 0
    ) -> bool:
        """Access a byte address; returns True on hit."""
        line = address >> self._line_shift
        return self.access_line(line, kind, core)

    def access_line(
        self, line: int, kind: AccessKind = AccessKind.READ, core: int = 0
    ) -> bool:
        """Access a line number directly; returns True on hit."""
        set_index = line & self._set_mask
        tag = line >> 0  # full line number kept as the tag for clarity
        hit, evicted = self._policy.lookup(set_index, tag)
        if evicted is not None:
            self.stats.evictions += 1
        self.stats.note_access(core, kind == AccessKind.READ, hit)
        return hit

    def access_chunk(self, chunk: TraceChunk) -> int:
        """Process a trace chunk; returns the number of misses it caused."""
        return self.access_lines_batch(
            chunk.lines(self.config.line_size), chunk.kinds, chunk.cores
        )

    def access_lines_batch(
        self,
        lines: np.ndarray,
        kinds: np.ndarray,
        cores: np.ndarray | int,
    ) -> int:
        """Process a batch of line numbers; returns the misses it caused.

        LRU caches run through the batched :class:`FastLRUKernel` path;
        every other policy falls back to the generic per-access loop.
        """
        hits = self.probe_lines_batch(lines, kinds, cores)
        return len(lines) - int(np.count_nonzero(hits))

    def probe_lines_batch(
        self,
        lines: np.ndarray,
        kinds: np.ndarray,
        cores: np.ndarray | int,
    ) -> np.ndarray:
        """Like :meth:`access_lines_batch`, but returns the hit mask.

        The per-access boolean result (in stream order) is what the
        batched emulator pipeline needs to aggregate window samples by
        prefix sums; state updates and statistics accounting are
        identical to :meth:`access_lines_batch`.
        """
        policy = self._policy
        stats = self.stats
        if isinstance(policy, FastLRUKernel):
            set_indices = None
            if self.config.num_sets > 1:
                set_indices = lines & np.uint64(self._set_mask)
            result = policy.lookup_batch(lines, set_indices)
            stats.evictions += result.evictions
            stats.note_batch(kinds, cores, result.hits)
            return result.hits
        set_mask = self._set_mask
        read_kind = int(AccessKind.READ)
        scalar_core = isinstance(cores, (int, np.integer))
        hits = np.empty(len(lines), dtype=bool)
        # Local-variable binding keeps the per-access Python overhead low.
        for i in range(len(lines)):
            line = int(lines[i])
            hit, evicted = policy.lookup(line & set_mask, line)
            if evicted is not None:
                stats.evictions += 1
            core = int(cores) if scalar_core else int(cores[i])
            stats.note_access(core, int(kinds[i]) == read_kind, hit)
            hits[i] = hit
        return hits

    def access_stream(self, stream) -> CacheStats:
        """Drain a trace stream through the cache; returns final stats."""
        for chunk in stream:
            self.access_chunk(chunk)
        return self.stats

    # -- directory dump ---------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        """The directory, for the occupancy audit and the kernel tests.

        LRU caches dump the kernel's dense numpy representation (two
        contiguous arrays); other policies travel as the policy object
        itself.
        """
        policy = self._policy
        if isinstance(policy, FastLRUKernel):
            policy_state: dict[str, object] = {
                "kind": "fastlru",
                **policy.dump_state(),
            }
        else:
            policy_state = {"kind": "pickled", "policy": policy}
        return {"policy": policy_state}

    # -- maintenance ------------------------------------------------------

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident (no side effects)."""
        line = address >> self._line_shift
        return self._policy.contains(line & self._set_mask, line)

    def resident_tags(self, set_index: int) -> list[int]:
        """Resident tags of one set, LRU→MRU (audit oracle, coherence).

        Only meaningful for recency-ordered policies (LRU); others raise
        ``AttributeError`` — callers that audit must use an LRU cache.
        """
        return self._policy.resident_tags(set_index)

    def resident_count(self) -> int | None:
        """Total resident lines (occupancy audit); O(num_sets).

        None for policies that don't expose their directory (FIFO,
        Random, tree-PLRU) — occupancy is then unobservable, not zero.
        """
        policy = self._policy
        if isinstance(policy, FastLRUKernel):
            return policy.resident_count()
        if not hasattr(policy, "resident_tags"):
            return None
        return sum(
            len(policy.resident_tags(s)) for s in range(self.config.num_sets)
        )

    def contains_line(self, line: int) -> bool:
        return self._policy.contains(line & self._set_mask, line)

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address``; returns whether it was resident."""
        line = address >> self._line_shift
        return self._policy.invalidate(line & self._set_mask, line)

    def install_line(self, line: int) -> None:
        """Insert a line without counting a demand access (prefetch fill)."""
        set_index = line & self._set_mask
        if self._policy.contains(set_index, line):
            return
        _, evicted = self._policy.lookup(set_index, line)
        if evicted is not None:
            self.stats.evictions += 1

    def flush(self) -> None:
        """Empty the cache, keeping statistics (emulator re-run support)."""
        self._policy.flush()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def __repr__(self) -> str:
        return f"SetAssociativeCache({self.config.describe()})"


class FullyAssociativeLRU:
    """A fast fully-associative LRU cache used as the validation oracle.

    A single-set :class:`FastLRUKernel`, so ``access`` is O(1) and
    ``access_chunk`` runs the batched kernel path.  Its miss counts are
    exactly what the stack-distance model predicts, which is what the
    model-vs-exact agreement tests rely on.
    """

    def __init__(self, capacity_lines: int, line_size: int = 64) -> None:
        if capacity_lines <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity_lines}")
        self.capacity_lines = capacity_lines
        self.line_size = line_size
        self._kernel = FastLRUKernel(num_sets=1, associativity=capacity_lines)
        self.stats = CacheStats()
        self._line_shift = line_size.bit_length() - 1

    def access(self, address: int, kind: AccessKind = AccessKind.READ, core: int = 0) -> bool:
        line = address >> self._line_shift
        return self.access_line(line, kind, core)

    def access_line(self, line: int, kind: AccessKind = AccessKind.READ, core: int = 0) -> bool:
        hit, evicted = self._kernel.lookup(0, line)
        if evicted is not None:
            self.stats.evictions += 1
        self.stats.note_access(core, kind == AccessKind.READ, hit)
        return hit

    def access_chunk(self, chunk: TraceChunk) -> int:
        result = self._kernel.lookup_batch(chunk.lines(self.line_size))
        self.stats.evictions += result.evictions
        self.stats.note_batch(chunk.kinds, chunk.cores, result.hits)
        return result.misses
