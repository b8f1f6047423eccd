"""Frequent-itemset mining with FP-growth (the FIMI workload).

Section 2.3: "The FIMI workload in use is based on the FP-Zhu package,
which includes three stages: first-scan, FP-tree construction, and
mining."  This module implements exactly those stages:

1. **first scan** — count item supports and order items by frequency;
2. **FP-tree construction** — insert frequency-ordered transactions
   into a prefix tree with header-table node chains;
3. **mining** — recursive conditional-pattern-base / conditional-tree
   FP-growth.

A brute-force enumerator (:func:`bruteforce_frequent_itemsets`) serves
as the test oracle.  The traced kernel runs the same code with a
:class:`~repro.trace.instrument.TraceRecorder` wired to the tree, so
node traversals emit the pointer-heavy access pattern that gives FIMI
its cache behaviour (a big shared read-only tree + per-thread private
conditional trees — the paper's category-B sharing pattern).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from repro.trace.instrument import MemoryArena, TraceRecorder
from repro.trace.record import AccessKind

#: Modelled size of one FP-tree node in guest memory (pointers, count,
#: item id, padding) — used to lay nodes out in the trace address space.
NODE_BYTES = 64


@dataclass
class FPNode:
    """One prefix-tree node."""

    item: int
    count: int = 0
    parent: "FPNode | None" = None
    children: dict[int, "FPNode"] = field(default_factory=dict)
    next_homonym: "FPNode | None" = None  # header-table chain
    node_id: int = 0  # position in the arena layout


class FPTree:
    """An FP-tree with a header table, optionally memory-instrumented.

    When a recorder is supplied, every node visit during construction
    and mining records a read/write at the node's modelled address.
    """

    def __init__(
        self,
        min_support: int,
        recorder: TraceRecorder | None = None,
        arena: MemoryArena | None = None,
    ) -> None:
        self.min_support = min_support
        self.root = FPNode(item=-1)
        self.header: dict[int, FPNode] = {}
        self.supports: dict[int, int] = {}
        self.recorder = recorder
        self._base = arena.allocate(1 << 20) if (recorder and arena) else 0
        self._next_node_id = 1

    # -- instrumentation ----------------------------------------------------

    def _touch(self, node: FPNode, kind: AccessKind) -> None:
        if self.recorder is not None:
            self.recorder.record(self._base + node.node_id * NODE_BYTES, kind)

    def _new_node(self, item: int, parent: FPNode) -> FPNode:
        node = FPNode(item=item, parent=parent, node_id=self._next_node_id)
        self._next_node_id += 1
        self._touch(node, AccessKind.WRITE)
        return node

    # -- construction ---------------------------------------------------------

    def insert(self, transaction: list[int]) -> None:
        """Insert a frequency-ordered transaction."""
        node = self.root
        for item in transaction:
            self._touch(node, AccessKind.READ)
            child = node.children.get(item)
            if child is None:
                child = self._new_node(item, node)
                node.children[item] = child
                head = self.header.get(item)
                child.next_homonym = head
                self.header[item] = child
            child.count += 1
            self._touch(child, AccessKind.WRITE)
            self.supports[item] = self.supports.get(item, 0) + 1
            node = child

    # -- mining ------------------------------------------------------------------

    def _prefix_paths(self, item: int) -> list[tuple[list[int], int]]:
        """Conditional pattern base of ``item``: (path, count) pairs."""
        paths: list[tuple[list[int], int]] = []
        node = self.header.get(item)
        while node is not None:
            self._touch(node, AccessKind.READ)
            path: list[int] = []
            ancestor = node.parent
            while ancestor is not None and ancestor.item != -1:
                self._touch(ancestor, AccessKind.READ)
                path.append(ancestor.item)
                ancestor = ancestor.parent
            if path:
                paths.append((path[::-1], node.count))
            node = node.next_homonym
        return paths

    def mine(self, suffix: tuple[int, ...] = ()) -> dict[tuple[int, ...], int]:
        """FP-growth: all frequent itemsets with their supports."""
        result: dict[tuple[int, ...], int] = {}
        # Items in increasing support order (standard FP-growth order).
        items = sorted(self.header, key=lambda i: self.supports.get(i, 0))
        for item in items:
            support = self.supports.get(item, 0)
            if support < self.min_support:
                continue
            itemset = tuple(sorted((item, *suffix)))
            result[itemset] = support
            paths = self._prefix_paths(item)
            conditional = FPTree(self.min_support, self.recorder)
            conditional._base = self._base  # conditional trees share the arena block
            conditional._next_node_id = self._next_node_id
            for path, count in paths:
                conditional._insert_counted(path, count)
            result.update(conditional.mine(itemset))
        return result

    def _insert_counted(self, transaction: list[int], count: int) -> None:
        """Insert a path with multiplicity ``count`` (conditional trees)."""
        node = self.root
        for item in transaction:
            self._touch(node, AccessKind.READ)
            child = node.children.get(item)
            if child is None:
                child = self._new_node(item, node)
                node.children[item] = child
                head = self.header.get(item)
                child.next_homonym = head
                self.header[item] = child
            child.count += count
            self._touch(child, AccessKind.WRITE)
            self.supports[item] = self.supports.get(item, 0) + count
            node = child

    @property
    def node_count(self) -> int:
        return self._next_node_id - 1


def first_scan(transactions: list[list[int]], min_support: int) -> dict[int, int]:
    """Stage 1: item supports, keeping only frequent items."""
    counts: dict[int, int] = {}
    for transaction in transactions:
        for item in transaction:
            counts[item] = counts.get(item, 0) + 1
    return {item: c for item, c in counts.items() if c >= min_support}


def order_transaction(
    transaction: list[int], frequent: dict[int, int]
) -> list[int]:
    """Filter to frequent items and order by decreasing support."""
    kept = [i for i in set(transaction) if i in frequent]
    return sorted(kept, key=lambda i: (-frequent[i], i))


def fp_growth(
    transactions: list[list[int]],
    min_support: int,
    recorder: TraceRecorder | None = None,
    arena: MemoryArena | None = None,
) -> dict[tuple[int, ...], int]:
    """Full three-stage FIMI pipeline; returns itemset → support."""
    frequent = first_scan(transactions, min_support)
    tree = FPTree(min_support, recorder, arena)
    for transaction in transactions:
        ordered = order_transaction(transaction, frequent)
        if ordered:
            tree.insert(ordered)
    return tree.mine()


def traced_fimi_kernel(
    recorder: TraceRecorder,
    arena: MemoryArena,
    transactions: Sequence[Sequence[int]],
    min_support: int = 8,
) -> dict[tuple[int, ...], int]:
    """FP-growth over ``transactions`` with the tree laid out in ``arena``."""
    return fp_growth(transactions, min_support, recorder=recorder, arena=arena)


def bruteforce_frequent_itemsets(
    transactions: list[list[int]], min_support: int, max_size: int = 4
) -> dict[tuple[int, ...], int]:
    """Oracle: enumerate all itemsets up to ``max_size`` and count support."""
    items = sorted({i for t in transactions for i in t})
    sets = [set(t) for t in transactions]
    result: dict[tuple[int, ...], int] = {}
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(items, size):
            needed = set(combo)
            support = sum(1 for s in sets if needed <= s)
            if support >= min_support:
                result[combo] = support
    return result
