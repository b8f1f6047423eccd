"""Force the replay engine's per-event loop.

``replay_into`` hands a bare strict ``DragonheadEmulator`` the batched
fast path; any other port replays the log message by message.  A
:class:`PassThroughSnooper` forwards every transaction unchanged, so
wrapping a port in one selects the per-event loop without changing
what the emulator sees.  That loop is the reference the batched path
is tested against.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import pytest

import repro.harness.replay as replay_module


class PassThroughSnooper:
    """Forwards every bus transaction to ``downstream`` unchanged."""

    def __init__(self, downstream) -> None:
        self.downstream = downstream
        self.chunks = 0

    def snoop(self, transaction) -> None:
        self.downstream.snoop(transaction)

    def snoop_chunk(self, chunk) -> None:
        self.chunks += 1
        self.downstream.snoop_chunk(chunk)


@contextlib.contextmanager
def per_event_replay() -> Iterator[list[PassThroughSnooper]]:
    """Route every in-process ``replay()`` through a pass-through snooper.

    Yields the snoopers, one per replayed point, so a caller can check
    that the per-event loop really ran.
    """
    real_replay_into = replay_module.replay_into
    snoopers: list[PassThroughSnooper] = []

    def through_snooper(log, port) -> None:
        snooper = PassThroughSnooper(port)
        snoopers.append(snooper)
        real_replay_into(log, snooper)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay_module, "replay_into", through_snooper)
        yield snoopers
