"""Packet and header formats for the SwitchFS/AsyncFS wire protocol (§5.1).

The paper runs its protocol over UDP.  The UDP payload optionally begins
with a *stale-set operation header* that the programmable switch parses at
line rate; the rest of the payload is an RPC request/response that only
servers interpret.  The switch parser branches on one thing: whether the
packet carries that header.  A packet without one is forwarded unread.

We keep simulated payloads as Python objects (the servers never serialise
them), but the stale-set header has a real byte-level codec
(:meth:`StaleSetHeader.pack` / :meth:`StaleSetHeader.unpack`) exercised by
the switch parser, mirroring Figure 8's layout::

    | OP (1B) | RET (1B) | SEQ (4B) | FINGERPRINT (8B, 49 bits used) |

Fast paths (DESIGN.md §10)
--------------------------
Packets are the per-message allocation of the whole datapath:

* :class:`Packet` is a plain ``__slots__`` class of four fields, built
  only by :func:`alloc_packet` (and :meth:`Packet.clone`, which calls
  it).  There is nothing to validate: any header, or none, is a valid
  packet.
* :class:`StaleSetHeader` is a tuple record.  Its constructor
  range-checks; :meth:`StaleSetHeader.with_ret` and
  :meth:`StaleSetHeader.unpack` (with its own wire checks) build headers
  through :func:`alloc_header`, an unchecked ``tuple.__new__``, on the
  switch's per-packet path.
"""

from __future__ import annotations

import enum
import struct
from collections import namedtuple
from typing import Any, Optional

__all__ = [
    "StaleSetOp",
    "StaleSetHeader",
    "Packet",
    "alloc_packet",
    "alloc_header",
    "FINGERPRINT_BITS",
    "HEADER_STRUCT",
]

#: Width of a directory fingerprint (§3.3): 17 index bits + 32 tag bits.
FINGERPRINT_BITS = 49

HEADER_STRUCT = struct.Struct("!BBIQ")


class StaleSetOp(enum.IntEnum):
    """Switch data-plane operation requested by the header.

    ``NONE``..``REMOVE`` drive the stale set (§4.4).  ``LOOKUP``,
    ``FILL``, and ``EVICT`` drive the optional in-switch hot-dentry
    cache (Fletch-style, DESIGN.md §15): a ``LOOKUP`` request may be
    answered by the switch itself, a ``FILL`` reply installs a cache
    line on the return path, and an ``EVICT`` invalidates a line after
    a server-side mutation.
    """

    NONE = 0
    INSERT = 1
    QUERY = 2
    REMOVE = 3
    LOOKUP = 4
    FILL = 5
    EVICT = 6


class StaleSetHeader(namedtuple("StaleSetHeader", "op fingerprint seq ret", defaults=(0, 0, 0))):
    """The optional switch-visible header at the head of the UDP payload.

    An immutable tuple record (DESIGN.md §11): all mutation goes through
    :meth:`with_ret`, which copies.

    Attributes
    ----------
    op:
        Which stale-set operation the switch should perform.
    fingerprint:
        49-bit directory fingerprint the operation targets.
    seq:
        Server-local sequence number; the switch uses it to discard
        duplicated ``REMOVE`` requests caused by retransmission (§4.4.1).
    ret:
        Result written by the switch: for ``QUERY``, 1 when the fingerprint
        is present (directory *scattered*); for ``INSERT``, 1 when the
        insert succeeded (0 means overflow, triggering sync fallback).
    """

    __slots__ = ()

    def __new__(cls, op: StaleSetOp, fingerprint: int = 0, seq: int = 0, ret: int = 0):
        if not 0 <= fingerprint < (1 << FINGERPRINT_BITS):
            raise ValueError(f"fingerprint out of 49-bit range: {fingerprint:#x}")
        if not 0 <= seq < (1 << 32):
            raise ValueError(f"seq out of 32-bit range: {seq}")
        if ret not in (0, 1):
            raise ValueError(f"ret must be 0 or 1, got {ret}")
        return _new_tuple(cls, (op, fingerprint, seq, ret))

    def __repr__(self) -> str:
        return (
            f"StaleSetHeader(op={self.op!r}, fingerprint={self.fingerprint:#x}, "
            f"seq={self.seq}, ret={self.ret})"
        )

    def pack(self) -> bytes:
        """Serialise to the 14-byte on-wire layout."""
        op, fingerprint, seq, ret = self
        return HEADER_STRUCT.pack(int(op), ret, seq, fingerprint)

    @classmethod
    def unpack(cls, data: bytes) -> "StaleSetHeader":
        """Parse the on-wire layout back into a header.

        Validates the same domains as the constructor (the wire could
        carry anything) but skips ``__new__`` dispatch: this runs once
        per stale-set packet in the switch parser.
        """
        op, ret, seq, fingerprint = HEADER_STRUCT.unpack(data[: HEADER_STRUCT.size])
        if fingerprint >= (1 << FINGERPRINT_BITS):
            raise ValueError(f"fingerprint out of 49-bit range: {fingerprint:#x}")
        if ret > 1:
            raise ValueError(f"ret must be 0 or 1, got {ret}")
        return alloc_header(StaleSetOp(op), fingerprint, seq, ret)

    def with_ret(self, ret: int) -> "StaleSetHeader":
        """Copy with the switch-written RET field set (hot switch path)."""
        op, fingerprint, seq, _ = self
        return alloc_header(op, fingerprint, seq, 1 if ret else 0)


_new_tuple = tuple.__new__


def alloc_header(
    op: StaleSetOp, fingerprint: int = 0, seq: int = 0, ret: int = 0
) -> StaleSetHeader:
    """Validation-free header construction (internal hot path).

    Callers (:meth:`StaleSetHeader.unpack`, :meth:`StaleSetHeader.with_ret`)
    pass already-validated field values; external code should use
    ``StaleSetHeader(...)``, which validates.
    """
    return _new_tuple(StaleSetHeader, (op, fingerprint, seq, ret))


class Packet:
    """A simulated UDP datagram.

    ``src``/``dst`` are host addresses (strings such as ``"server-3"``).
    ``payload`` is the RPC message object.  ``header`` is the stale-set
    header the switch acts on, or ``None`` for a packet it only forwards.
    Build one with :func:`alloc_packet`.
    """

    __slots__ = ("src", "dst", "payload", "header")

    def __repr__(self) -> str:
        return (
            f"Packet(src={self.src!r}, dst={self.dst!r}, "
            f"header={self.header!r}, payload={self.payload!r})"
        )

    def clone(
        self,
        dst: Optional[str] = None,
        payload: Any = None,
        header: Optional[StaleSetHeader] = None,
    ) -> "Packet":
        """A new packet with this one's fields, overriding those given.

        Used by the fault model for duplication, by the RPC layer to resend
        a kept reply and by the switch for multicast, address rewriting and
        turning a request around.
        """
        return alloc_packet(
            self.src,
            self.dst if dst is None else dst,
            self.payload if payload is None else payload,
            self.header if header is None else header,
        )


def alloc_packet(
    src: str, dst: str, payload: Any, header: Optional[StaleSetHeader] = None
) -> Packet:
    """Build a packet: the one constructor, on every send path."""
    p = object.__new__(Packet)
    p.src = src
    p.dst = dst
    p.payload = payload
    p.header = header
    return p
