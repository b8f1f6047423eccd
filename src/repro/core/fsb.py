"""Front-side bus model.

The physical channel between the simulation host and Dragonhead: every
memory transaction the host issues is visible to passive *snoopers*
attached to the bus.  Ordinary data transactions and protocol messages
(addresses inside the reserved window, see
:mod:`repro.protocol`) share the same wires — exactly the trick the
paper's platform uses to let SoftSDV talk to the emulator without a
side channel.

The wires are not assumed perfect: a
:class:`~repro.faults.injector.FaultInjector` implements the same
:class:`BusSnooper` interface and can be attached in a snooper's place,
modelling the lossy logic-analyzer channel the real platform's AF
regulator was built to survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.protocol import MessageCodec
from repro.trace.record import AccessKind, TraceChunk


@dataclass(frozen=True, slots=True)
class FSBTransaction:
    """One bus transaction."""

    address: int
    kind: AccessKind = AccessKind.READ
    pc: int = 0

    @property
    def is_message(self) -> bool:
        """Whether this transaction encodes a protocol message."""
        return MessageCodec.is_message(self.address)


class BusSnooper(Protocol):
    """Anything that passively observes bus traffic (e.g. Dragonhead)."""

    def snoop(self, transaction: FSBTransaction) -> None: ...

    def snoop_chunk(self, chunk: TraceChunk) -> None: ...


class FrontSideBus:
    """A bus with attached passive snoopers.

    The bus does not model timing or arbitration — Dragonhead is
    passive, so transaction *order* is the only architectural content.
    Chunked issue is provided so bulk traces avoid per-transaction
    Python overhead where the snooper supports it.
    """

    def __init__(self) -> None:
        self._snoopers: list[BusSnooper] = []
        self.transactions_issued: int = 0

    def attach(self, snooper: BusSnooper) -> None:
        """Attach a passive snooper; it sees every subsequent transaction."""
        self._snoopers.append(snooper)

    def detach(self, snooper: BusSnooper) -> None:
        self._snoopers.remove(snooper)

    def issue(self, transaction: FSBTransaction) -> None:
        """Place one transaction on the bus."""
        self.transactions_issued += 1
        for snooper in self._snoopers:
            snooper.snoop(transaction)

    def issue_chunk(self, chunk: TraceChunk) -> None:
        """Place a whole trace chunk on the bus, in order."""
        self.transactions_issued += len(chunk)
        for snooper in self._snoopers:
            snooper.snoop_chunk(chunk)
