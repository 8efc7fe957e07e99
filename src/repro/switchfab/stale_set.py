"""The in-network stale set (§5.3).

The stale set tracks the fingerprints of directories in *scattered* state
(delayed updates pending on other servers).  It is organised like a
set-associative cache over the switch's register stages: the upper bits of
a 49-bit fingerprint index a register in every stage, and the low 32 bits
are the tag stored there.  With the paper's configuration — 10 stages of
2^17 registers — the set holds up to 1,310,720 fingerprints.

Operations (executed as a sequence of register actions, one per stage):

* ``query``  — every stage runs *register query*; results OR together.
* ``insert`` — stages run *conditional insert* until one succeeds; all
  later stages run *conditional remove* so no duplicate tags survive
  (Figure 9).  Returns False when every way is occupied (overflow), which
  triggers the synchronous-update fallback.
* ``remove`` — every stage runs *conditional remove*.  A per-source
  sequence number filter discards duplicated removes from retransmission
  (§4.4.1): a remove executes only if its SEQ exceeds the largest
  previously seen from that source.
"""

from __future__ import annotations

from typing import Dict, Optional

from .pipeline import TableGeometry

__all__ = ["StaleSet"]


class StaleSet:
    """A set of 49-bit fingerprints stored across register stages."""

    def __init__(self, geometry: TableGeometry):
        self.geometry = geometry
        self._stages = geometry.stages()
        # Largest REMOVE sequence number seen per source address (§4.4.1).
        self._remove_seq: Dict[str, int] = {}
        self.inserts = 0
        self.insert_overflows = 0
        self.removes = 0
        self.queries = 0

    # -- operations ---------------------------------------------------------
    def query(self, fingerprint: int) -> bool:
        """Is *fingerprint* in the set?  (Stale-set QUERY.)

        Early-exits on the first hit and skips empty stages entirely — a
        register stage with ``occupied == 0`` cannot match any tag.  The
        hardware ORs all stages unconditionally, but the result is
        identical, and queries are read-only so no interleaving changes.
        """
        self.queries += 1
        index, tag = self.geometry.split(fingerprint)
        for stage in self._stages:
            if stage.occupied and stage.regs[index] == tag:
                return True
        return False

    def insert(self, fingerprint: int) -> bool:
        """Add *fingerprint*; False on overflow (all ways full).

        Following Figure 9: stages attempt *conditional insert* one by one
        until the first success; every subsequent stage performs
        *conditional remove* so a tag duplicated by concurrent inserts is
        cleaned up (skipped for empty stages, which cannot hold the tag).
        """
        self.inserts += 1
        index, tag = self.geometry.split(fingerprint)
        inserted = False
        for stage in self._stages:
            if not inserted:
                inserted = stage.conditional_insert(index, tag)
            elif stage.occupied:
                stage.conditional_remove(index, tag)
        if not inserted:
            self.insert_overflows += 1
        return inserted

    def remove(self, fingerprint: int, source: str = "", seq: Optional[int] = None) -> bool:
        """Remove *fingerprint*; returns False if filtered as a duplicate.

        When *seq* is given, the remove only executes if *seq* is strictly
        larger than the largest sequence number previously accepted from
        *source* — this is the duplicate-remove filter of §4.4.1.
        """
        if seq is not None:
            last = self._remove_seq.get(source, -1)
            if seq <= last:
                return False
            self._remove_seq[source] = seq
        self.removes += 1
        index, tag = self.geometry.split(fingerprint)
        for stage in self._stages:
            if stage.occupied:
                stage.conditional_remove(index, tag)
        return True

    # -- introspection -----------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(stage.occupied for stage in self._stages)

    def reset(self) -> None:
        """Lose all state (switch failure, §4.4.2) — including SEQ filters."""
        for stage in self._stages:
            stage.reset()
        self._remove_seq.clear()
