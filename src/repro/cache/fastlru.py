"""Batched exact-LRU kernel for chunked trace replay.

The per-access simulation path (``LRUPolicy.lookup`` driven from a
Python ``for`` loop) spends most of its time on interpreter overhead:
one method call, one ``list.remove`` scan of up to ``associativity``
elements, and several numpy scalar extractions per access.
:class:`FastLRUKernel` replaces that with a kernel that processes a
whole :class:`~repro.trace.record.TraceChunk` per call:

* address-to-line and line-to-set arithmetic happens once, vectorized,
  on the chunk's numpy arrays;
* the inherently sequential recency updates run over native Python ints
  (one ``ndarray.tolist`` bulk conversion) against per-set insertion-
  ordered dicts, so every lookup, touch, and eviction is O(1) instead
  of an O(associativity) list scan;
* the per-access outcomes come back as a hit mask plus eviction count,
  so statistics accounting (:meth:`repro.cache.stats.CacheStats.
  note_batch`) is vectorized too.

The logical state is the classic timestamp matrix — ``tags[num_sets,
associativity]`` with ``stamps[num_sets, associativity]`` recording the
recency order — and :meth:`tag_matrix` / :meth:`stamp_matrix`
materialize exactly that view for inspection and tests.  Internally
each set's (tag, stamp) row is stored as one insertion-ordered dict
(LRU first, MRU last), which is the same structure with the stamps kept
implicit: CPython dicts preserve insertion order, making
delete-and-reinsert the fastest recency update available without a C
extension.

Two further optimizations matter on real chunk shapes:

* Consecutive same-line repeats are collapsed before the loop.  A
  chunk access whose (set, tag) equals the immediately-previous
  access's is always an MRU hit that leaves the LRU state untouched:
  the previous access left the tag at the MRU end, and an eviction
  never removes the tag just inserted (the victim is the LRU head, and
  a set that evicts holds at least two tags).  Strided scans — the
  dominant pattern in the paper's workloads — repeat each line
  ``line_size/stride`` times back to back, so this one vectorized
  compare removes most of their accesses from the Python loop.
* The per-set container is chosen by geometry.  Plain dicts are
  fastest for normal associativities, but their eviction pattern
  (delete the head, insert at the tail) leaves tombstones that
  ``next(iter(...))`` must scan past, which for huge single-set
  caches (the fully-associative oracle) degrades evictions to ~O(n)
  until the next rehash.  ``collections.OrderedDict`` keeps a real
  linked list, making head removal O(1) at any size, and accepts the
  exact same dict operations — so sets wider than
  ``_ORDERED_SET_MIN_ASSOC`` ways use it instead.

The kernel is an exact drop-in for :class:`~repro.cache.replacement.
LRUPolicy`: identical hits, identical victims, identical order, plus
the full scalar :class:`~repro.cache.replacement.ReplacementPolicy`
interface (``lookup``/``contains``/``invalidate``/``flush``/
``resident_tags``), so the coherence, victim-cache, and write-back
layers that inspect recency order keep working unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.cache.replacement import ReplacementPolicy

#: Sentinel used in the exported tag matrix for empty ways.
EMPTY_WAY = -1

#: Miss sentinel for the pop-then-reinsert hit test: stored way values
#: are always ``None``, so ``ways.pop(tag, _ABSENT) is None`` decides
#: hit/miss in a single hash probe.
_ABSENT = object()

#: Above this many ways a set uses ``OrderedDict`` instead of ``dict``:
#: plain-dict eviction cost is amortized O(associativity) (tombstone
#: scan), OrderedDict's is O(1) but each access pays a little more.
#: Measured on the throughput benchmark: dict wins 13.8ms vs 19.0ms at
#: 16 ways, OrderedDict wins 14.2ms vs 239ms at 16384 ways.
_ORDERED_SET_MIN_ASSOC = 128


@dataclass(frozen=True, slots=True)
class BatchResult:
    """Outcome of one :meth:`FastLRUKernel.lookup_batch` call.

    Attributes:
        hits: boolean per-access hit mask, in chunk order.
        evictions: number of capacity evictions the batch caused.
        victims: per-access evicted tag (``EMPTY_WAY`` where the access
            evicted nothing); only populated when the batch was run with
            ``collect_victims=True``, else None.
    """

    hits: np.ndarray
    evictions: int
    victims: np.ndarray | None = None

    @property
    def misses(self) -> int:
        return int(self.hits.size - np.count_nonzero(self.hits))


class FastLRUKernel(ReplacementPolicy):
    """Exact LRU with O(1) scalar operations and a batched lookup path."""

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._set_factory = (
            OrderedDict if associativity > _ORDERED_SET_MIN_ASSOC else dict
        )
        # Per-set dicts are allocated lazily on first touch: a design-
        # space sweep replays one short trace through many large
        # geometries, and eagerly building (say) 16 k dicts per 64 MB
        # bank costs more than the replay itself.  ``None`` marks a
        # never-touched (empty) set.
        self._sets: list[dict[int, None] | None] = [None] * num_sets

    # -- scalar path (ReplacementPolicy interface) ----------------------

    def lookup(self, set_index: int, tag: int) -> tuple[bool, int | None]:
        ways = self._sets[set_index]
        if ways is None:
            ways = self._sets[set_index] = self._set_factory()
        if tag in ways:
            del ways[tag]
            ways[tag] = None
            return True, None
        ways[tag] = None
        if len(ways) > self.associativity:
            victim = next(iter(ways))
            del ways[victim]
            return False, victim
        return False, None

    def contains(self, set_index: int, tag: int) -> bool:
        ways = self._sets[set_index]
        return ways is not None and tag in ways

    def invalidate(self, set_index: int, tag: int) -> bool:
        ways = self._sets[set_index]
        if ways is not None and tag in ways:
            del ways[tag]
            return True
        return False

    def flush(self) -> None:
        self._sets = [None] * self.num_sets

    def resident_tags(self, set_index: int) -> list[int]:
        """LRU→MRU tags of one set (same contract as ``LRUPolicy``)."""
        ways = self._sets[set_index]
        return [] if ways is None else list(ways)

    # -- batched path ---------------------------------------------------

    def lookup_batch(
        self,
        tags: np.ndarray,
        set_indices: np.ndarray | None = None,
        *,
        collect_victims: bool = False,
    ) -> BatchResult:
        """Replay a whole chunk of accesses through the LRU state.

        Args:
            tags: line numbers (``uint64``), one per access, chunk order.
            set_indices: set index per access; None means every access
                maps to set 0 (the fully-associative case).
            collect_victims: also record the evicted tag per access,
                for the exact-equivalence differential tests.

        Returns:
            A :class:`BatchResult` whose outcomes are identical, access
            by access, to calling :meth:`lookup` in a loop.
        """
        tag_arr = np.asarray(tags)
        n = int(tag_arr.size)
        set_arr = None if set_indices is None else np.asarray(set_indices)
        # Collapse consecutive same-(set, tag) repeats: each is an MRU
        # hit with no eviction and no state change (see module docstring
        # for why), so only the first access of a run enters the loop.
        keep = None
        if n > 1:
            repeat = np.empty(n, dtype=bool)
            repeat[0] = False
            np.equal(tag_arr[1:], tag_arr[:-1], out=repeat[1:])
            if set_arr is not None:
                repeat[1:] &= set_arr[1:] == set_arr[:-1]
            if repeat.any():
                keep = ~repeat
                tag_arr = tag_arr[keep]
                if set_arr is not None:
                    set_arr = set_arr[keep]
        tag_list = tag_arr.tolist()
        hits: list[bool] = []
        note_hit = hits.append
        evictions = 0
        assoc = self.associativity
        sets = self._sets
        if collect_victims:
            victims: list[int] = []
            note_victim = victims.append
            if set_arr is None:
                pairs = ((0, tag) for tag in tag_list)
            else:
                pairs = zip(set_arr.tolist(), tag_list)
            for set_index, tag in pairs:
                ways = sets[set_index]
                if ways is None:
                    ways = sets[set_index] = self._set_factory()
                # pop-then-reinsert: one hash probe fewer per hit than
                # membership-test + delete + insert, same LRU order.
                if ways.pop(tag, _ABSENT) is None:
                    ways[tag] = None
                    note_hit(True)
                    note_victim(EMPTY_WAY)
                    continue
                ways[tag] = None
                note_hit(False)
                if len(ways) > assoc:
                    victim = next(iter(ways))
                    del ways[victim]
                    evictions += 1
                    note_victim(victim)
                else:
                    note_victim(EMPTY_WAY)
            hit_arr = np.array(hits, dtype=bool)
            victim_arr = np.array(victims, dtype=np.int64)
            if keep is not None:
                full_hits = np.ones(n, dtype=bool)
                full_hits[keep] = hit_arr
                full_victims = np.full(n, EMPTY_WAY, dtype=np.int64)
                full_victims[keep] = victim_arr
                hit_arr, victim_arr = full_hits, full_victims
            return BatchResult(hits=hit_arr, evictions=evictions, victims=victim_arr)
        if set_arr is None:
            ways = sets[0]
            if ways is None:
                ways = sets[0] = self._set_factory()
            for tag in tag_list:
                if ways.pop(tag, _ABSENT) is None:
                    ways[tag] = None
                    note_hit(True)
                else:
                    ways[tag] = None
                    note_hit(False)
                    if len(ways) > assoc:
                        del ways[next(iter(ways))]
                        evictions += 1
        else:
            for set_index, tag in zip(set_arr.tolist(), tag_list):
                ways = sets[set_index]
                if ways is None:
                    ways = sets[set_index] = self._set_factory()
                if ways.pop(tag, _ABSENT) is None:
                    ways[tag] = None
                    note_hit(True)
                else:
                    ways[tag] = None
                    note_hit(False)
                    if len(ways) > assoc:
                        del ways[next(iter(ways))]
                        evictions += 1
        hit_arr = np.array(hits, dtype=bool)
        if keep is not None:
            full_hits = np.ones(n, dtype=bool)
            full_hits[keep] = hit_arr
            hit_arr = full_hits
        return BatchResult(hits=hit_arr, evictions=evictions)

    # -- directory dump -------------------------------------------------

    def resident_count(self) -> int:
        """Total lines currently resident across all sets."""
        return sum(len(ways) for ways in self._sets if ways)

    def dump_state(self) -> dict[str, np.ndarray]:
        """Dense numpy dump of the full directory state.

        Two arrays: ``lengths[num_sets]`` (``int64``, resident lines per
        set; ``-1`` for a set never touched) and ``tags`` (``uint64``,
        every resident tag concatenated set by set, LRU→MRU within each
        set): two contiguous buffers, byte-stable for a given logical
        state, so the occupancy audit and the batch-vs-scalar tests can
        compare directories with array operations.
        """
        lengths = np.empty(self.num_sets, dtype=np.int64)
        chunks: list[list[int]] = []
        for set_index, ways in enumerate(self._sets):
            if ways is None:
                lengths[set_index] = -1
            else:
                lengths[set_index] = len(ways)
                if ways:
                    chunks.append(list(ways))
        if chunks:
            tags = np.fromiter(
                (tag for chunk in chunks for tag in chunk),
                dtype=np.uint64,
                count=sum(len(chunk) for chunk in chunks),
            )
        else:
            tags = np.empty(0, dtype=np.uint64)
        return {"lengths": lengths, "tags": tags}

    # -- timestamp-matrix view -----------------------------------------

    def tag_matrix(self) -> np.ndarray:
        """``tags[num_sets, associativity]``, LRU→MRU, ``EMPTY_WAY`` padded."""
        matrix = np.full((self.num_sets, self.associativity), EMPTY_WAY, dtype=np.int64)
        for set_index, ways in enumerate(self._sets):
            if ways:
                matrix[set_index, : len(ways)] = list(ways)
        return matrix

    def stamp_matrix(self) -> np.ndarray:
        """``stamps[num_sets, associativity]``: recency rank per way.

        0 is least-recently used; empty ways carry ``EMPTY_WAY``.  The
        ranks are relative (what LRU ordering needs), not absolute
        access times.
        """
        matrix = np.full((self.num_sets, self.associativity), EMPTY_WAY, dtype=np.int64)
        for set_index, ways in enumerate(self._sets):
            n = 0 if ways is None else len(ways)
            if n:
                matrix[set_index, :n] = np.arange(n, dtype=np.int64)
        return matrix

    def __repr__(self) -> str:
        resident = sum(len(ways) for ways in self._sets if ways is not None)
        return (
            f"FastLRUKernel(sets={self.num_sets}, assoc={self.associativity}, "
            f"resident={resident})"
        )
