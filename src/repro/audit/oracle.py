"""Sampled differential LRU oracle.

The fastlru kernel (PR 1) is the single component every result depends
on, and its batched path — repeat collapse, lazy set allocation,
dict-order recency — is exactly the kind of optimized code where a
subtle bug corrupts statistics without crashing anything.  The oracle
re-runs a deterministic 1-in-K slice of (bank, set) pairs through the
*generic* :class:`~repro.cache.replacement.LRUPolicy` (the slow,
obviously-correct list implementation) in parallel with the real run,
and the audit compares the two directories tag for tag, in recency
order, at end of run.

The tap hooks into :meth:`~repro.cache.emulator.DragonheadEmulator.
snoop_chunk` *after* the AF's window gating, so oracle and banks see
the identical access stream — including under fault injection, where
both sit downstream of the injector.  Sampling is by set, not by
access: a sampled set sees **every** access it would receive, which is
what makes its final LRU order exactly comparable.
"""

from __future__ import annotations

import numpy as np

from repro.cache.replacement import LRUPolicy

#: Default 1-in-K set sampling for ``--audit sample``.  The generic
#: policy is ~10x slower per access than the kernel, so auditing 1/64th
#: of the sets costs a few percent extra wall clock (measured ~4-5% on
#: an 8-point replay sweep) — comfortably inside the <10% budget —
#: while still sweeping hundreds of sets on real geometries.
SAMPLE_EVERY = 64


class OracleTap:
    """Replays a deterministic slice of sets through the generic LRU.

    Args:
        num_sets: sets per CC bank (all four banks share one geometry).
        associativity: ways per set.
        num_banks: CC bank count.
        bank_shift: line-number shift that folds the bank bits away.
        every: sample 1 in ``every`` (bank, set) pairs; 1 audits all.

    The sampled slice is ``(set * num_banks + bank) % every == 0`` — a
    pure function of the geometry, so a fresh run and its replay audit
    the same sets.
    """

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        num_banks: int,
        bank_shift: int,
        every: int = SAMPLE_EVERY,
    ) -> None:
        if every < 1:
            raise ValueError(f"sampling interval must be >= 1, got {every}")
        self.num_sets = num_sets
        self.associativity = associativity
        self.num_banks = num_banks
        self.bank_shift = bank_shift
        self.every = every
        self.observed = 0
        self._set_mask = np.uint64(num_sets - 1)
        self._policies: dict[tuple[int, int], LRUPolicy] = {}
        # When the bank bits are the low bits of the line number
        # (num_banks == 1 << bank_shift, true for the 4-bank CC) the
        # sample index ``set * num_banks + bank`` equals
        # ``line & combined``, and for power-of-two ``every`` the
        # modulo test collapses to one AND over the raw lines — the
        # whole-stream cost of the tap on the snoop hot path.  The
        # selected (bank, set) pairs are identical to the generic
        # predicate's, so sampled-set membership does not depend on
        # which path runs.
        combined = ((num_sets - 1) << bank_shift) | (num_banks - 1)
        self._fast_mask: np.uint64 | None = None
        if num_banks == 1 << bank_shift and every & (every - 1) == 0:
            self._fast_mask = np.uint64(combined & (every - 1))

    # -- snoop-path hook ---------------------------------------------------

    def observe(self, lines: np.ndarray) -> None:
        """Feed the window-gated line-number stream (emulator line units)."""
        lines = np.asarray(lines, dtype=np.uint64)
        if lines.size == 0:
            return
        if self.every > 1:
            # Select the sampled slice before decoding bank/set: the
            # decode then runs on ~1/every of the stream instead of
            # all of it.
            if self._fast_mask is not None:
                lines = lines[lines & self._fast_mask == np.uint64(0)]
            else:
                banks = (lines % np.uint64(self.num_banks)).astype(np.int64)
                sets = (
                    (lines >> np.uint64(self.bank_shift)) & self._set_mask
                ).astype(np.int64)
                lines = lines[(sets * self.num_banks + banks) % self.every == 0]
            if lines.size == 0:
                return
        banks = (lines % np.uint64(self.num_banks)).astype(np.int64)
        bank_lines = lines >> np.uint64(self.bank_shift)
        sets = (bank_lines & self._set_mask).astype(np.int64)
        policies = self._policies
        assoc = self.associativity
        for bank, set_index, tag in zip(
            banks.tolist(), sets.tolist(), bank_lines.tolist()
        ):
            policy = policies.get((bank, set_index))
            if policy is None:
                policy = policies[(bank, set_index)] = LRUPolicy(1, assoc)
            policy.lookup(0, tag)
        self.observed += int(lines.size)

    # -- audit-time comparison --------------------------------------------

    def verify(self, banks: list) -> list[str]:
        """Compare every sampled set's directory against the real banks.

        ``banks`` is the emulator's CC bank list; each must expose
        ``resident_tags(set_index)`` returning LRU→MRU tags.  Returns a
        description per mismatching set.
        """
        problems: list[str] = []
        for (bank, set_index) in sorted(self._policies):
            expected = self._policies[(bank, set_index)].resident_tags(0)
            actual = banks[bank].resident_tags(set_index)
            if actual != expected:
                problems.append(
                    f"CC{bank} set {set_index}: fastlru holds "
                    f"{_preview(actual)}, oracle expects {_preview(expected)}"
                )
        return problems


def _preview(tags: list[int], limit: int = 4) -> str:
    """Bounded rendering of a resident-tag list for mismatch details."""
    if len(tags) <= limit:
        return f"{tags}"
    return f"[{', '.join(str(t) for t in tags[:limit])}, ...x{len(tags)}]"
