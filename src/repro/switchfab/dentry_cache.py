"""The in-switch hot-dentry cache (Fletch-style, DESIGN.md §15).

Alongside the stale set, the switch can dedicate register stages to a
set-associative cache of recent lookup/stat results: the upper bits of a
49-bit fingerprint index a register in every stage, the low 32 bits are
the tag stored there, and a parallel value array models the per-register
payload registers that hold the cached reply.  A ``LOOKUP`` packet whose
fingerprint matches a line turns around at the switch; server replies
carrying a ``FILL`` header install lines on the return path; ``EVICT``
packets (and stale-set ``INSERT`` s) invalidate matching lines.

The tag registers reuse :class:`~repro.switchfab.pipeline.RegisterStage`
verbatim — the cache is the same hardware resource as the stale set, just
provisioned with value storage.  Because ``index_bits`` may be smaller
than the fingerprint's 17 index bits, a tag match alone can alias two
distinct fingerprints; each value slot therefore stores the full 49-bit
fingerprint (two more registers per line in hardware) and a lookup only
hits when it matches exactly.  Remaining collisions are genuine 49-bit
fingerprint collisions, which the scheme shares with the stale set and
accepts (§3.3).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .pipeline import TableGeometry

__all__ = ["DentryCache"]


class DentryCache:
    """A fingerprint-indexed cache of lookup/stat replies in the pipeline."""

    def __init__(self, geometry: TableGeometry):
        self.geometry = geometry
        self._stages = geometry.stages()
        # values[stage][index] = (full fingerprint, cached reply value).
        self._values: List[List[Optional[Tuple[int, Any]]]] = [
            [None] * geometry.registers_per_stage for _ in self._stages
        ]
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0

    # -- operations --------------------------------------------------------
    def lookup(self, fingerprint: int) -> Optional[Any]:
        """The cached value for *fingerprint*, or ``None`` on a miss.

        Every stage runs *register query* on the tag; a tag match only
        counts when the stored full fingerprint matches too (aliasing
        guard, see module docstring).
        """
        index, tag = self.geometry.split(fingerprint)
        for stage_no, stage in enumerate(self._stages):
            if stage.occupied and stage.regs[index] == tag:
                slot = self._values[stage_no][index]
                if slot is not None and slot[0] == fingerprint:
                    self.hits += 1
                    return slot[1]
        self.misses += 1
        return None

    def fill(self, fingerprint: int, value: Any) -> None:
        """Install (or refresh) the line for *fingerprint*.

        Stages attempt *conditional insert* one by one; a stage already
        holding the tag refreshes its value in place.  When every way is
        occupied the line in stage 0 is overwritten — a plain register
        write, so hot fingerprints converge into the cache instead of
        being locked out by earlier residents.
        """
        index, tag = self.geometry.split(fingerprint)
        for stage_no, stage in enumerate(self._stages):
            if stage.occupied and stage.regs[index] == tag:
                self._values[stage_no][index] = (fingerprint, value)
                self.fills += 1
                return
        for stage_no, stage in enumerate(self._stages):
            if stage.conditional_insert(index, tag):
                self._values[stage_no][index] = (fingerprint, value)
                self.fills += 1
                return
        # All ways occupied: replace stage 0's resident.
        stage = self._stages[0]
        stage.regs[index] = tag
        self._values[0][index] = (fingerprint, value)
        self.fills += 1
        self.evictions += 1

    def invalidate(self, fingerprint: int) -> bool:
        """Drop any line matching *fingerprint*; True if one was dropped.

        Conservative on aliases: a register whose tag matches is cleared
        even if its full fingerprint differs — spuriously evicting an
        alias is safe (the next lookup just misses), whereas keeping a
        stale line is not.
        """
        index, tag = self.geometry.split(fingerprint)
        dropped = False
        for stage_no, stage in enumerate(self._stages):
            if stage.occupied and stage.regs[index] == tag:
                stage.conditional_remove(index, tag)
                self._values[stage_no][index] = None
                self.evictions += 1
                dropped = True
        return dropped

    # -- introspection -----------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(stage.occupied for stage in self._stages)

    def reset(self) -> None:
        """Lose all state (switch reboot / epoch flush): cold start."""
        for stage, values in zip(self._stages, self._values):
            stage.reset()
            values[:] = [None] * len(values)
