"""Register stages and register actions (§5.3).

A Tofino-class switch exposes per-stage register arrays that packets read
and modify as they traverse the pipeline.  The architecture guarantees two
properties the stale set's correctness rests on (§5.3 *Properties*):

* **Atomicity** — operations within one stage are atomic;
* **Ordered execution** — if packet A enters stage S1 before packet B,
  A reaches every later stage before B.

In this reproduction the switch processes each packet's full pipeline as
one synchronous call in packet-arrival order, which realises both
properties by construction; :class:`RegisterStage` still models the three
register *actions* of the paper exactly, so the insert/remove interleaving
semantics (duplicate-tag cleanup, conditional writes) are faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..net.packet import FINGERPRINT_BITS

__all__ = ["RegisterStage", "TableGeometry"]

#: Register value that denotes an empty slot.
EMPTY = 0

#: Tag width in bits (register width).
TAG_BITS = 32


class RegisterStage:
    """One pipeline stage: an array of 32-bit registers.

    Three register actions are available, mirroring §5.3:

    * :meth:`query` — compare the register with *tag*, return equality;
    * :meth:`conditional_insert` — write *tag* if the register is empty;
      returns True when the register now holds *tag* (it was empty or
      already equal);
    * :meth:`conditional_remove` — zero the register if it equals *tag*.

    The actions do not validate *index* and *tag*: a pair enters a table
    only through :meth:`TableGeometry.split`, which proves
    ``0 <= index < size`` and ``0 < tag < 2^32`` once for the whole
    pipeline pass; re-checking per stage would validate identical values
    ten times per packet.
    """

    __slots__ = ("size", "regs", "occupied")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"stage size must be >= 1, got {size}")
        self.size = size
        self.regs: List[int] = [EMPTY] * size
        self.occupied = 0

    def query(self, index: int, tag: int) -> bool:
        """Register action (a): does the register hold *tag*?"""
        return self.regs[index] == tag

    def conditional_insert(self, index: int, tag: int) -> bool:
        """Register action (b): write *tag* if empty.

        Returns True when the original value was empty **or already equal
        to tag** (the paper's insert treats both as success so a duplicated
        insert is idempotent).
        """
        current = self.regs[index]
        if current == EMPTY:
            self.regs[index] = tag
            self.occupied += 1
            return True
        return current == tag

    def conditional_remove(self, index: int, tag: int) -> None:
        """Register action (c): zero the register if it equals *tag*."""
        if self.regs[index] == tag:
            self.regs[index] = EMPTY
            self.occupied -= 1

    def reset(self) -> None:
        """Clear every register (switch failure / control-plane flush)."""
        self.regs = [EMPTY] * self.size
        self.occupied = 0


@dataclass(frozen=True)
class TableGeometry:
    """Shape of one fingerprint-indexed table over register stages.

    The stale set and the dentry cache are the same hardware resource:
    ``num_stages`` stages of ``2^index_bits`` registers, indexed by the
    fingerprint bits above the 32-bit tag.  The paper's stale set is
    ``TableGeometry(10, 17)`` (131,072 registers per stage); tests and
    laptop-scale experiments shrink ``index_bits``, semantics unchanged.
    """

    num_stages: int
    index_bits: int

    def __post_init__(self):
        if self.num_stages < 1:
            raise ValueError(f"need at least one stage, got {self.num_stages}")
        if not 1 <= self.index_bits <= FINGERPRINT_BITS - TAG_BITS:
            raise ValueError(
                f"index_bits must be in [1, {FINGERPRINT_BITS - TAG_BITS}], "
                f"got {self.index_bits}"
            )

    @property
    def registers_per_stage(self) -> int:
        return 1 << self.index_bits

    @property
    def capacity(self) -> int:
        return self.num_stages * self.registers_per_stage

    def stages(self) -> List[RegisterStage]:
        """A fresh, empty set of register stages of this shape."""
        return [RegisterStage(self.registers_per_stage) for _ in range(self.num_stages)]

    def split(self, fingerprint: int) -> Tuple[int, int]:
        """Decompose a 49-bit fingerprint into (stage index, 32-bit tag).

        The one place a fingerprint enters a table, so the one place its
        range is checked; the per-stage register actions then run on the
        proven-valid pair.
        """
        if not 0 <= fingerprint < (1 << FINGERPRINT_BITS):
            raise ValueError(f"fingerprint out of 49-bit range: {fingerprint:#x}")
        tag = fingerprint & 0xFFFFFFFF
        if tag == EMPTY:
            # Tag 0 means "empty register"; fingerprint generation avoids it
            # (see repro.core.schema.fingerprint_of) so hitting this is a bug.
            raise ValueError("fingerprint with tag 0 cannot be stored")
        return (fingerprint >> TAG_BITS) & ((1 << self.index_bits) - 1), tag
