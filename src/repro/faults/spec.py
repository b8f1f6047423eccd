"""``--inject`` FAULTSPEC parsing and deterministic decision streams.

A fault plan is written as a comma-separated list of ``channel=value``
pairs, e.g.::

    --inject "seed=42,drop-data=0.001,drop-msg=0.01,miss-window=0.05"

Each channel models one hardware failure mode of the paper's platform
(see the taxonomy table in ``docs/architecture.md``).  Rates are
per-opportunity probabilities in ``[0, 1]``; ``corrupt-trace`` is a
count of cache entries to damage; ``seed`` anchors every random
decision.

Determinism contract: every decision stream is derived from
``(seed, scope...)`` via SHA-256, never from global state, so the same
spec injects the same faults at the same points regardless of worker
count, submission order, or how a sweep was resumed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.errors import FaultInjectionError

#: FAULTSPEC channel name → FaultSpec field, with its value parser.
_CHANNELS: dict[str, tuple[str, type]] = {
    "seed": ("seed", int),
    "drop-data": ("drop_data", float),
    "dup-data": ("dup_data", float),
    "drop-msg": ("drop_message", float),
    "reorder-msg": ("reorder_message", float),
    "miss-window": ("miss_window", float),
    "corrupt-trace": ("corrupt_trace", int),
    "crash": ("crash", float),
    "hang": ("hang", float),
    "hang-seconds": ("hang_seconds", float),
}

_RATE_FIELDS = (
    "drop_data",
    "dup_data",
    "drop_message",
    "reorder_message",
    "miss_window",
    "crash",
    "hang",
)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """A parsed fault-injection plan (picklable: crosses worker processes).

    Attributes:
        seed: anchor of every decision stream.
        drop_data: probability a data transaction vanishes on the bus.
        dup_data: probability a data transaction is seen twice.
        drop_message: probability a protocol message is lost in flight.
        reorder_message: probability a protocol message is delayed past
            the next transaction (adjacent reordering).
        miss_window: probability one CB stat read (a CYCLES_COMPLETED
            message) is missed by the host.
        corrupt_trace: number of trace-cache entries to bit-flip before
            the sweep loads them.
        crash: probability a sweep worker dies mid-point (first attempt
            only, so retry always converges).
        hang: probability a sweep worker stalls mid-point (first
            attempt only).
        hang_seconds: how long an injected hang sleeps — finite, so an
            untimed sweep still finishes, merely late.
    """

    seed: int = 0
    drop_data: float = 0.0
    dup_data: float = 0.0
    drop_message: float = 0.0
    reorder_message: float = 0.0
    miss_window: float = 0.0
    corrupt_trace: int = 0
    crash: float = 0.0
    hang: float = 0.0
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(
                    f"fault rate {name.replace('_', '-')} must be in [0, 1], got {rate}"
                )
        if self.corrupt_trace < 0:
            raise FaultInjectionError(
                f"corrupt-trace must be a non-negative count, got {self.corrupt_trace}"
            )
        if self.hang_seconds <= 0:
            raise FaultInjectionError(
                f"hang-seconds must be positive, got {self.hang_seconds}"
            )

    # -- parsing -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a ``--inject`` FAULTSPEC string."""
        spec = cls()
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            name, _, raw = token.partition("=")
            name = name.strip()
            if name not in _CHANNELS:
                known = ", ".join(sorted(_CHANNELS))
                raise FaultInjectionError(
                    f"unknown fault channel {name!r}; valid channels: {known}"
                )
            field_name, parser = _CHANNELS[name]
            try:
                value = parser(raw.strip())
            except ValueError:
                raise FaultInjectionError(
                    f"fault channel {name!r} needs a {parser.__name__}, got {raw!r}"
                ) from None
            spec = replace(spec, **{field_name: value})
        return spec

    @property
    def touches_bus(self) -> bool:
        """Whether any bus-level channel is active (needs an injector)."""
        return any(
            getattr(self, name) > 0.0
            for name in (
                "drop_data",
                "dup_data",
                "drop_message",
                "reorder_message",
                "miss_window",
            )
        )

    # -- deterministic decision streams --------------------------------

    def rng(self, *scope: object) -> np.random.Generator:
        """A decision stream for one ``scope`` (e.g. a grid point).

        The scope strings are hashed into the seed material, so streams
        for different points (or different channels at one point) are
        independent, yet fully reproducible from the spec alone.
        """
        digest = hashlib.sha256(
            "\x1f".join(str(part) for part in scope).encode("utf-8")
        ).digest()
        words = np.frombuffer(digest[:16], dtype=np.uint32)
        return np.random.default_rng([self.seed, *(int(w) for w in words)])

    def harness_fault(self, point_key: str) -> str | None:
        """Harness-level fate of one grid point: 'crash', 'hang', or None.

        Decided per point, applied only on the first attempt — the
        analog of a transient host failure, which a retry survives.
        """
        if self.crash <= 0.0 and self.hang <= 0.0:
            return None
        draw = float(self.rng(point_key, "harness").random())
        if draw < self.crash:
            return "crash"
        if draw < self.crash + self.hang:
            return "hang"
        return None


def parse_fault_spec(text: str | None) -> FaultSpec | None:
    """CLI helper: None/empty disables injection entirely."""
    if text is None or not text.strip():
        return None
    return FaultSpec.parse(text)
