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
* the outcomes come back as the ascending miss positions plus the
  eviction count, so statistics accounting
  (:func:`repro.cache.stats.note_lines`) is vectorized too.

Every LRU cache probes a batch through one function,
:func:`probe_lines`, over ``B`` interleaved kernels: ``B = 4`` for
``DragonheadEmulator``'s CC banks and ``B = 1`` for
:meth:`FastLRUKernel.lookup_batch`, the one-kernel call that
``SetAssociativeCache`` and ``FullyAssociativeLRU`` make.

The logical state is the classic timestamp matrix — ``tags[num_sets,
associativity]`` with ``stamps[num_sets, associativity]`` recording the
recency order — and :meth:`tag_matrix` / :meth:`stamp_matrix`
materialize exactly that view for inspection and tests.  Internally
each set's (tag, stamp) row is stored as one insertion-ordered dict
(LRU first, MRU last), which is the same structure with the stamps kept
implicit: CPython dicts preserve insertion order, making
delete-and-reinsert the fastest recency update available without a C
extension.

Four further optimizations matter on real chunk shapes:

* Consecutive same-line repeats are collapsed before the loop.  A
  chunk access whose tag equals the immediately-previous access's is
  always an MRU hit that leaves the LRU state untouched: the previous
  access left the tag at the MRU end, and an eviction never removes
  the tag just inserted (the victim is the LRU head, and a set that
  evicts holds at least two tags).  Strided scans — the dominant
  pattern in the paper's workloads — repeat each line
  ``line_size/stride`` times back to back, so this one vectorized
  compare removes most of their accesses from the Python loop.
* A batch into an empty kernel resolves every set that never fills
  without the loop.  LRU is a stack algorithm (Mattson et al., 1970):
  a set that starts empty and receives at most ``associativity``
  distinct tags never evicts, so its misses are exactly the first
  access to each tag and its final recency order (LRU→MRU) is the
  order of each tag's last use.  :func:`stack_pass` applies that rule
  once, to a line stream spread over one or more interleaved banks:
  one sort counts the distinct lines per set, and if any set fits, one
  argsort yields every line's first and last use.  Only the accesses
  of sets that overflow, or of kernels that already hold lines, run
  the loop, kernel by kernel: one loop over all ``B`` kernels' sets
  keeps ``B`` times as many set dicts live and ran 27–35 % slower on
  the four CC banks.
* A resolved set's directory stays as arrays (:class:`ResolvedSets`)
  until something reads the kernel: a scalar lookup, a later batch, a
  directory dump or ``resident_tags``.  A replay whose emulator is
  dropped after its readout never builds a per-set dict for them.
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
from typing import Sequence

import numpy as np

from repro import telemetry
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


def run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal adjacent values."""
    new_run = np.empty(values.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(values[1:], values[:-1], out=new_run[1:])
    return np.flatnonzero(new_run)


@dataclass(frozen=True, slots=True)
class BatchResult:
    """Outcome of one :meth:`FastLRUKernel.lookup_batch` call.

    Attributes:
        miss_at: positions of the misses in the batch, ascending.
        evictions: number of capacity evictions the batch caused.
        size: number of accesses in the batch.
    """

    miss_at: np.ndarray
    evictions: int
    size: int

    @property
    def misses(self) -> int:
        return int(self.miss_at.size)

    @property
    def hits(self) -> np.ndarray:
        """Boolean per-access hit mask, in batch order."""
        hits = np.ones(self.size, dtype=bool)
        hits[self.miss_at] = False
        return hits


@dataclass(frozen=True, slots=True)
class ResolvedSets:
    """One bank's sets resolved by the stack rule, as arrays.

    ``sets`` holds the set indices in ascending order; set ``sets[i]``
    holds ``tags[bounds[i]:bounds[i + 1]]``, LRU→MRU.
    """

    sets: np.ndarray
    tags: np.ndarray
    bounds: np.ndarray


@dataclass(frozen=True, slots=True)
class StackPass:
    """Outcome of :func:`stack_pass` over a collapsed line stream.

    Attributes:
        misses: stream indices of the resolved sets' misses (each
            resolved line's first touch), in no particular order.
        loop_at: stream indices, ascending, of the accesses whose sets
            must run the loop; None when every access resolved.
        resolved: one :class:`ResolvedSets` per bank (None for a bank
            with no resolved set).
    """

    misses: np.ndarray
    loop_at: np.ndarray | None
    resolved: list[ResolvedSets | None]


def stack_pass(
    lines: np.ndarray, num_sets: int, associativity: int, fresh: Sequence[bool]
) -> StackPass | None:
    """Resolve every set that never fills, over ``len(fresh)`` banks.

    ``lines`` is a line stream with no consecutive repeats.  With ``B``
    banks (a power of two), line ``l`` goes to bank ``l & (B - 1)`` as
    tag ``l >> log2(B)``, in set ``tag & (num_sets - 1)``; together the
    banks form one array of ``B * num_sets`` sets indexed by
    ``l & (B * num_sets - 1)``.  A set of a bank that starts empty
    (``fresh[bank]``) and receives at most ``associativity`` distinct
    lines resolves by the stack rule: its misses are its first touches
    and its directory is its tags in last-use order.  Every other set's
    accesses are left to the loop.
    """
    m = lines.size
    banks = len(fresh)
    shift = banks.bit_length() - 1
    # One sort finds the distinct lines and so the per-set counts; it
    # is all that a stream in which no set fits pays up front.
    sorted_lines = np.sort(lines)
    starts = run_starts(sorted_lines)
    distinct = sorted_lines[starts]
    set_of = (distinct & np.uint64(banks * num_sets - 1)).astype(np.intp)
    fits = np.bincount(set_of, minlength=banks * num_sets) <= associativity
    if not all(fresh):
        fits.reshape(num_sets, banks)[:, ~np.asarray(fresh, dtype=bool)] = False
    fit_lines = fits[set_of]
    if not fit_lines.any():
        return None
    # Sorted values do not depend on the algorithm, so ``starts`` also
    # delimits each line's accesses in the argsort's order.
    order = np.argsort(lines)
    first = np.minimum.reduceat(order, starts)
    last = np.maximum.reduceat(order, starts)
    loop_at = None
    if not fit_lines.all():
        set_mask = np.uint64(banks * num_sets - 1)
        loop_at = np.flatnonzero(~fits[(lines & set_mask).astype(np.intp)])
        set_of, first, last = set_of[fit_lines], first[fit_lines], last[fit_lines]
    # Group by bank, then set; each set's LRU→MRU order is last use.
    # A last use names its line, so one sort of packed (bank, set, last
    # use) keys orders every directory, with no argsort.
    bank_set = (set_of & (banks - 1)) * num_sets + (set_of >> shift)
    bank_set, last = np.divmod(np.sort(bank_set * m + last), m)
    tags = lines[last] >> np.uint64(shift)
    set_starts = run_starts(bank_set)
    heads = bank_set[set_starts]
    ends = np.append(set_starts, tags.size)
    cuts = np.searchsorted(heads, np.arange(banks + 1) * num_sets)
    resolved: list[ResolvedSets | None] = []
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        bounds = ends[lo : hi + 1]
        resolved.append(
            ResolvedSets(
                sets=heads[lo:hi] & (num_sets - 1),
                tags=tags[bounds[0] : bounds[-1]],
                bounds=bounds - bounds[0],
            )
            if hi > lo
            else None
        )
    return StackPass(first, loop_at, resolved)


def count_paths(resolved: int, looped: int) -> None:
    """Count probed accesses by path, the stack rule's or the loop's."""
    if telemetry.enabled():
        counter = telemetry.counter
        counter("repro_fastlru_accesses_total", path="resolved").inc(resolved)
        counter("repro_fastlru_accesses_total", path="looped").inc(looped)


def probe_lines(
    lines: np.ndarray, kernels: Sequence[FastLRUKernel]
) -> tuple[np.ndarray, list[int]]:
    """Probe a line stream through ``B = len(kernels)`` interleaved kernels.

    Line ``l`` goes to kernel ``l & (B - 1)`` as tag ``l >> log2(B)``;
    the kernels share one geometry and ``B`` is a power of two.  One
    repeat collapse, then :func:`stack_pass` resolves every set of an
    empty kernel that never fills; every other set runs its own
    kernel's loop in stream order.  Resolved sets stay in their kernel
    as arrays until something reads it.

    Returns the positions of the misses in ``lines``, ascending, and
    each kernel's evictions: outcomes identical, access by access, to
    calling :meth:`FastLRUKernel.lookup` in a loop.
    """
    if not lines.size:
        return np.empty(0, dtype=np.intp), [0] * len(kernels)
    # Collapse consecutive repeats of one line: each is an MRU hit with
    # no eviction and no state change (see the module docstring), so
    # only the first access of a run is probed.
    keep = run_starts(lines)
    collapsed = keep.size < lines.size
    if collapsed:
        lines = lines[keep]
    fresh = [kernel.empty for kernel in kernels]
    found = None
    if any(fresh):
        geometry = kernels[0]
        found = stack_pass(lines, geometry.num_sets, geometry.associativity, fresh)
    if found is None:
        miss_at, evictions = _loop(lines, kernels)
    else:
        loop_at = found.loop_at
        count_paths(lines.size - (0 if loop_at is None else loop_at.size), 0)
        miss_at, evictions = found.misses, [0] * len(kernels)
        if loop_at is not None:
            looped, evictions = _loop(lines[loop_at], kernels)
            miss_at = np.concatenate([miss_at, loop_at[looped]])
        # The stack rule's misses come in no particular order.
        miss_at.sort()
        # After the loops, which read only the sets left to them.
        for kernel, resolved in zip(kernels, found.resolved):
            if resolved is not None:
                kernel.hold(resolved)
    return (keep[miss_at] if collapsed else miss_at), evictions


def _loop(
    lines: np.ndarray, kernels: Sequence[FastLRUKernel]
) -> tuple[np.ndarray, list[int]]:
    """Run each kernel's share of ``lines`` through its loop, in order.

    Kernel by kernel, not as one loop over all their sets: each loop
    then keeps only its own kernel's set dicts cache-resident.  Returns
    the misses as ascending indices into ``lines``, and each kernel's
    evictions.
    """
    banks = len(kernels)
    evictions = [0] * banks
    if banks == 1:
        hits, evictions[0] = kernels[0]._probe_loop(lines)
        count_paths(0, lines.size)
        return np.flatnonzero(~hits), evictions
    shift = np.uint64(banks.bit_length() - 1)
    bank_of = lines.astype(np.uint8)
    bank_of &= banks - 1
    misses = []
    for b, kernel in enumerate(kernels):
        at = np.flatnonzero(bank_of == b)
        if not at.size:
            continue
        tags = lines[at] >> shift
        # A line repeated with only other kernels' lines between is an
        # MRU hit too, so each share collapses its own repeats.
        keep = run_starts(tags)
        hits, evictions[b] = kernel._probe_loop(tags[keep])
        count_paths(0, keep.size)
        misses.append(at[keep[~hits]])
    miss_at = np.concatenate(misses)
    miss_at.sort()
    return miss_at, evictions


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
        # never-touched (empty) set; ``_allocated`` counts the others,
        # resolved ones included, so "is the whole kernel empty" is one
        # integer test.
        self._set_list: list[dict[int, None] | None] = [None] * num_sets
        self._resolved: ResolvedSets | None = None
        self._allocated = 0

    @property
    def _sets(self) -> list[dict[int, None] | None]:
        """The per-set dicts, built first from any resolved arrays."""
        resolved = self._resolved
        if resolved is not None:
            self._resolved = None
            sets, fromkeys = self._set_list, self._set_factory.fromkeys
            tag_list = resolved.tags.tolist()
            bounds = resolved.bounds.tolist()
            for set_index, lo, hi in zip(resolved.sets.tolist(), bounds, bounds[1:]):
                sets[set_index] = fromkeys(tag_list[lo:hi])
        return self._set_list

    @property
    def empty(self) -> bool:
        """Whether no set holds a line (the stack rule applies)."""
        return not self._allocated

    def hold(self, resolved: ResolvedSets) -> None:
        """Keep sets the stack rule resolved as arrays until read.

        Only sets that are still empty may be handed over, and only
        while the kernel holds no other resolved arrays.
        """
        assert self._resolved is None, "resolved sets are already held"
        self._resolved = resolved
        self._allocated += int(resolved.sets.size)

    # -- scalar path (ReplacementPolicy interface) ----------------------

    def lookup(self, set_index: int, tag: int) -> tuple[bool, int | None]:
        sets = self._sets
        ways = sets[set_index]
        if ways is None:
            ways = sets[set_index] = self._set_factory()
            self._allocated += 1
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
        self._set_list = [None] * self.num_sets
        self._resolved = None
        self._allocated = 0

    def resident_tags(self, set_index: int) -> list[int]:
        """LRU→MRU tags of one set (same contract as ``LRUPolicy``)."""
        ways = self._sets[set_index]
        return [] if ways is None else list(ways)

    # -- batched path ---------------------------------------------------

    def lookup_batch(self, tags: np.ndarray) -> BatchResult:
        """Replay a whole chunk of accesses through the LRU state.

        The one-kernel call of :func:`probe_lines`.

        Args:
            tags: line numbers (``uint64``), one per access, chunk order.
                Each access maps to set ``tag & (num_sets - 1)``, the
                low bits of its line number.

        Returns:
            A :class:`BatchResult` whose outcomes are identical, access
            by access, to calling :meth:`lookup` in a loop.
        """
        tags = np.asarray(tags)
        miss_at, (evictions,) = probe_lines(tags, [self])
        return BatchResult(miss_at, evictions, int(tags.size))

    def _probe_loop(self, tag_arr: np.ndarray) -> tuple[np.ndarray, int]:
        """The per-access LRU loop: (hit mask, evictions)."""
        tag_list = tag_arr.tolist()
        hits: list[bool] = []
        note_hit = hits.append
        evictions = 0
        assoc = self.associativity
        sets = self._sets
        factory = self._set_factory
        if self.num_sets == 1:
            ways = sets[0]
            if ways is None:
                ways = sets[0] = factory()
                self._allocated += 1
            # pop-then-reinsert: one hash probe fewer per hit than
            # membership-test + delete + insert, same LRU order.
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
            set_list = (tag_arr & (self.num_sets - 1)).tolist()
            allocated = 0
            for set_index, tag in zip(set_list, tag_list):
                ways = sets[set_index]
                if ways is None:
                    ways = sets[set_index] = factory()
                    allocated += 1
                if ways.pop(tag, _ABSENT) is None:
                    ways[tag] = None
                    note_hit(True)
                else:
                    ways[tag] = None
                    note_hit(False)
                    if len(ways) > assoc:
                        del ways[next(iter(ways))]
                        evictions += 1
            self._allocated += allocated
        return np.array(hits, dtype=bool), evictions

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
