"""The SoftSDV→Dragonhead FSB message protocol.

Section 3.3: "Some memory transactions are predefined as messages from
SoftSDV to Dragonhead", carrying five commands — start emulation, stop
emulation, core-ID, instructions retired, and cycles completed.  Because
Dragonhead passively snoops the bus, the only channel the simulator has
is the address lines of ordinary memory transactions, so each message is
encoded *into an address* within a reserved window that no real workload
data maps to.

Encoding (64-bit address)::

    [ MESSAGE_BASE (high bits) | opcode (8 bits) | payload (40 bits) ]

Payloads wider than 40 bits (cumulative instruction counts) are sent as
multiple transactions using the ``*_LOW``/``*_HIGH`` opcode pairs; this
module hides that behind :class:`MessageCodec`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ProtocolError

#: Base of the reserved message address window.  Chosen far above any
#: address the MemoryArena allocator hands out.
MESSAGE_BASE: int = 0xD_A60_0000_0000_0000

_OPCODE_SHIFT = 40
_PAYLOAD_MASK = (1 << _OPCODE_SHIFT) - 1
_OPCODE_MASK = 0xFF


class MessageKind(enum.IntEnum):
    """Command opcodes of the co-simulation protocol (Section 3.3)."""

    START_EMULATION = 0x01
    STOP_EMULATION = 0x02
    CORE_ID = 0x03
    INSTRUCTIONS_RETIRED = 0x04
    CYCLES_COMPLETED = 0x05
    # Wide-payload continuation opcodes (implementation detail).
    INSTRUCTIONS_RETIRED_HIGH = 0x14
    CYCLES_COMPLETED_HIGH = 0x15


@dataclass(frozen=True, slots=True)
class Message:
    """A decoded protocol message."""

    kind: MessageKind
    payload: int = 0


class MessageCodec:
    """Encode messages to bus addresses and decode them back.

    The decoder is stateful only for wide payloads: a ``*_HIGH``
    transaction stashes the upper bits until the matching low word
    arrives.  :meth:`is_message` is the address filter's fast check.
    """

    def __init__(self) -> None:
        self._pending_high: dict[MessageKind, int] = {}

    # -- classification ----------------------------------------------------

    @staticmethod
    def is_message(address: int) -> bool:
        """Whether a bus address falls in the reserved message window."""
        return (address & MESSAGE_BASE) == MESSAGE_BASE

    @staticmethod
    def peek_opcode(address: int) -> int:
        """The raw opcode field of a message address, without decoding.

        Cheap classification for components that must route messages
        (the fault injector, bus taps) without owning decoder state —
        the returned value may be outside :class:`MessageKind` for a
        corrupted transaction.
        """
        return (address >> _OPCODE_SHIFT) & _OPCODE_MASK

    # -- encoding -----------------------------------------------------------

    @staticmethod
    def encode(message: Message) -> list[int]:
        """Encode a message into one or two bus addresses."""
        payload = message.payload
        if payload < 0:
            raise ProtocolError(f"negative payload: {payload}")
        if payload <= _PAYLOAD_MASK:
            return [MESSAGE_BASE | (int(message.kind) << _OPCODE_SHIFT) | payload]
        high = payload >> _OPCODE_SHIFT
        if high > _PAYLOAD_MASK:
            raise ProtocolError(f"payload too wide: {payload}")
        low = payload & _PAYLOAD_MASK
        if message.kind is MessageKind.INSTRUCTIONS_RETIRED:
            high_kind = MessageKind.INSTRUCTIONS_RETIRED_HIGH
        elif message.kind is MessageKind.CYCLES_COMPLETED:
            high_kind = MessageKind.CYCLES_COMPLETED_HIGH
        else:
            raise ProtocolError(
                f"message kind {message.kind.name} does not support wide payloads"
            )
        return [
            MESSAGE_BASE | (int(high_kind) << _OPCODE_SHIFT) | high,
            MESSAGE_BASE | (int(message.kind) << _OPCODE_SHIFT) | low,
        ]

    # -- decoding -------------------------------------------------------------

    def decode(self, address: int) -> Message | None:
        """Decode one bus address; returns None for continuation words."""
        if not self.is_message(address):
            raise ProtocolError(f"address {address:#x} is not in the message window")
        opcode = (address >> _OPCODE_SHIFT) & _OPCODE_MASK
        payload = address & _PAYLOAD_MASK
        try:
            kind = MessageKind(opcode)
        except ValueError:
            raise ProtocolError(f"unknown message opcode {opcode:#x}") from None
        if kind is MessageKind.INSTRUCTIONS_RETIRED_HIGH:
            self._pending_high[MessageKind.INSTRUCTIONS_RETIRED] = payload
            return None
        if kind is MessageKind.CYCLES_COMPLETED_HIGH:
            self._pending_high[MessageKind.CYCLES_COMPLETED] = payload
            return None
        high = self._pending_high.pop(kind, 0)
        return Message(kind, (high << _OPCODE_SHIFT) | payload)

    def decode_stream(self, addresses: list[int]) -> Iterator[Message]:
        """Decode a sequence of message addresses."""
        for address in addresses:
            message = self.decode(address)
            if message is not None:
                yield message
