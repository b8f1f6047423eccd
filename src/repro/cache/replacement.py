"""Replacement policies for set-associative caches.

Dragonhead implements LRU in its CC FPGAs; we provide LRU as the default
plus tree-PLRU (what real LLCs often approximate LRU with), FIFO, and
random, so :class:`~repro.cache.cache.SetAssociativeCache` supports
policy studies beyond the paper's configuration (``repro-ablations``).
The Dragonhead emulator itself is LRU-only, as the hardware is.

A policy owns the per-set bookkeeping.  The cache calls
:meth:`ReplacementPolicy.lookup` for each access; the policy reports a
hit or selects a victim way.  Tags are opaque integers.
"""

from __future__ import annotations

import abc
import random


class ReplacementPolicy(abc.ABC):
    """Per-set replacement bookkeeping.

    Subclasses manage ``num_sets`` sets of ``associativity`` ways each.
    """

    def __init__(self, num_sets: int, associativity: int) -> None:
        self.num_sets = num_sets
        self.associativity = associativity

    @abc.abstractmethod
    def lookup(self, set_index: int, tag: int) -> tuple[bool, int | None]:
        """Access ``tag`` in ``set_index``.

        Returns ``(hit, evicted_tag)``: on a hit the tag's recency state
        is updated and ``evicted_tag`` is None; on a miss the tag is
        installed and ``evicted_tag`` is the displaced tag, or None if a
        way was free.
        """

    @abc.abstractmethod
    def contains(self, set_index: int, tag: int) -> bool:
        """Whether ``tag`` currently resides in ``set_index`` (no state change)."""

    @abc.abstractmethod
    def invalidate(self, set_index: int, tag: int) -> bool:
        """Remove ``tag`` from ``set_index``; returns whether it was present."""

    def flush(self) -> None:
        """Drop all cached tags (emulator reconfiguration)."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used, the policy Dragonhead emulates.

    Each set is an ordered list with the MRU tag at the end; hits move
    the tag to the end, misses evict the head.
    """

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]

    def lookup(self, set_index: int, tag: int) -> tuple[bool, int | None]:
        ways = self._sets[set_index]
        try:
            ways.remove(tag)
            ways.append(tag)
            return True, None
        except ValueError:
            pass
        ways.append(tag)
        if len(ways) > self.associativity:
            return False, ways.pop(0)
        return False, None

    def contains(self, set_index: int, tag: int) -> bool:
        return tag in self._sets[set_index]

    def invalidate(self, set_index: int, tag: int) -> bool:
        try:
            self._sets[set_index].remove(tag)
            return True
        except ValueError:
            return False

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]

    def resident_tags(self, set_index: int) -> list[int]:
        """LRU→MRU tags of one set (for tests and the coherence layer)."""
        return list(self._sets[set_index])


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: hits do not update recency."""

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]

    def lookup(self, set_index: int, tag: int) -> tuple[bool, int | None]:
        ways = self._sets[set_index]
        if tag in ways:
            return True, None
        ways.append(tag)
        if len(ways) > self.associativity:
            return False, ways.pop(0)
        return False, None

    def contains(self, set_index: int, tag: int) -> bool:
        return tag in self._sets[set_index]

    def invalidate(self, set_index: int, tag: int) -> bool:
        try:
            self._sets[set_index].remove(tag)
            return True
        except ValueError:
            return False

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]


class RandomPolicy(ReplacementPolicy):
    """Random victim selection with a deterministic seed."""

    def __init__(self, num_sets: int, associativity: int, seed: int = 0) -> None:
        super().__init__(num_sets, associativity)
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]
        self._rng = random.Random(seed)

    def lookup(self, set_index: int, tag: int) -> tuple[bool, int | None]:
        ways = self._sets[set_index]
        if tag in ways:
            return True, None
        if len(ways) < self.associativity:
            ways.append(tag)
            return False, None
        victim_index = self._rng.randrange(self.associativity)
        evicted = ways[victim_index]
        ways[victim_index] = tag
        return False, evicted

    def contains(self, set_index: int, tag: int) -> bool:
        return tag in self._sets[set_index]

    def invalidate(self, set_index: int, tag: int) -> bool:
        try:
            self._sets[set_index].remove(tag)
            return True
        except ValueError:
            return False

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU over a power-of-two associativity.

    Each set keeps ``associativity - 1`` tree bits; an access flips the
    bits along its way's path to point away from it, and the victim is
    found by following the bits from the root.
    """

    def __init__(self, num_sets: int, associativity: int) -> None:
        if associativity & (associativity - 1):
            raise ValueError("TreePLRU requires power-of-two associativity")
        super().__init__(num_sets, associativity)
        self._tags: list[list[int | None]] = [
            [None] * associativity for _ in range(num_sets)
        ]
        self._bits: list[list[int]] = [
            [0] * max(1, associativity - 1) for _ in range(num_sets)
        ]

    def _touch(self, set_index: int, way: int) -> None:
        bits = self._bits[set_index]
        node = 0
        span = self.associativity
        while span > 1:
            half = span // 2
            go_right = way >= half
            bits[node] = 0 if go_right else 1  # point away from touched way
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                way -= half
            span = half

    def _victim(self, set_index: int) -> int:
        bits = self._bits[set_index]
        node = 0
        way = 0
        span = self.associativity
        while span > 1:
            half = span // 2
            go_right = bits[node] == 1
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                way += half
            span = half
        return way

    def lookup(self, set_index: int, tag: int) -> tuple[bool, int | None]:
        tags = self._tags[set_index]
        for way, resident in enumerate(tags):
            if resident == tag:
                self._touch(set_index, way)
                return True, None
        for way, resident in enumerate(tags):
            if resident is None:
                tags[way] = tag
                self._touch(set_index, way)
                return False, None
        way = self._victim(set_index)
        evicted = tags[way]
        tags[way] = tag
        self._touch(set_index, way)
        return False, evicted

    def contains(self, set_index: int, tag: int) -> bool:
        return tag in self._tags[set_index]

    def invalidate(self, set_index: int, tag: int) -> bool:
        tags = self._tags[set_index]
        for way, resident in enumerate(tags):
            if resident == tag:
                tags[way] = None
                return True
        return False

    def flush(self) -> None:
        for tags in self._tags:
            for way in range(self.associativity):
                tags[way] = None
        for bits in self._bits:
            for i in range(len(bits)):
                bits[i] = 0


POLICIES: dict[str, type[ReplacementPolicy]] = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
    "plru": TreePLRUPolicy,
}


def make_policy(name: str, num_sets: int, associativity: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``random``/``plru``)."""
    try:
        cls = POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    return cls(num_sets, associativity)
