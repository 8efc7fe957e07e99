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

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..net.packet import FINGERPRINT_BITS
from .pipeline import RegisterStage
from .stale_set import TAG_BITS

__all__ = ["DentryCacheConfig", "DentryCache"]


@dataclass(frozen=True)
class DentryCacheConfig:
    """Geometry of the hot-dentry cache.

    Defaults are deliberately small relative to the stale set: the cache
    competes for the same register budget, and the design-space bench
    (``benchmarks/test_switch_cache_design_space.py``) sweeps
    ``num_stages``/``index_bits`` to show where capacity stops paying.
    """

    num_stages: int = 4
    index_bits: int = 10

    def __post_init__(self):
        if self.num_stages < 1:
            raise ValueError(f"need at least one stage, got {self.num_stages}")
        if not 1 <= self.index_bits <= FINGERPRINT_BITS - 1:
            raise ValueError(f"index_bits out of range: {self.index_bits}")

    @property
    def registers_per_stage(self) -> int:
        return 1 << self.index_bits

    @property
    def capacity(self) -> int:
        return self.num_stages * self.registers_per_stage


class DentryCache:
    """A fingerprint-indexed cache of lookup/stat replies in the pipeline."""

    def __init__(self, config: Optional[DentryCacheConfig] = None):
        self.config = config or DentryCacheConfig()
        self._stages: List[RegisterStage] = [
            RegisterStage(self.config.registers_per_stage)
            for _ in range(self.config.num_stages)
        ]
        # values[stage][index] = (full fingerprint, cached reply value).
        self._values: List[List[Optional[Tuple[int, Any]]]] = [
            [None] * self.config.registers_per_stage
            for _ in range(self.config.num_stages)
        ]
        self._index_mask = self.config.registers_per_stage - 1
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0

    # -- fingerprint split -------------------------------------------------
    def split(self, fingerprint: int) -> Tuple[int, int]:
        """Decompose a 49-bit fingerprint into (stage index, 32-bit tag)."""
        if not 0 <= fingerprint < (1 << FINGERPRINT_BITS):
            raise ValueError(f"fingerprint out of 49-bit range: {fingerprint:#x}")
        index = (fingerprint >> TAG_BITS) & self._index_mask
        tag = fingerprint & 0xFFFFFFFF
        if tag == 0:
            # Tag 0 means "empty register"; fingerprint generation avoids it
            # (repro.core.schema) so hitting this is a bug.
            raise ValueError("fingerprint with tag 0 cannot be cached")
        return index, tag

    # -- operations --------------------------------------------------------
    def lookup(self, fingerprint: int) -> Optional[Any]:
        """The cached value for *fingerprint*, or ``None`` on a miss.

        Every stage runs *register query* on the tag; a tag match only
        counts when the stored full fingerprint matches too (aliasing
        guard, see module docstring).
        """
        index, tag = self.split(fingerprint)
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
        index, tag = self.split(fingerprint)
        for stage_no, stage in enumerate(self._stages):
            if stage.occupied and stage.regs[index] == tag:
                self._values[stage_no][index] = (fingerprint, value)
                self.fills += 1
                return
        for stage_no, stage in enumerate(self._stages):
            if stage.conditional_insert_unchecked(index, tag):
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
        index, tag = self.split(fingerprint)
        dropped = False
        for stage_no, stage in enumerate(self._stages):
            if stage.occupied and stage.regs[index] == tag:
                stage.conditional_remove_unchecked(index, tag)
                self._values[stage_no][index] = None
                self.evictions += 1
                dropped = True
        return dropped

    # -- introspection -----------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(stage.occupied for stage in self._stages)

    @property
    def capacity(self) -> int:
        return self.config.capacity

    def reset(self) -> None:
        """Lose all state (switch reboot / epoch flush): cold start."""
        for stage_no, stage in enumerate(self._stages):
            stage.reset()
            values = self._values[stage_no]
            for i in range(len(values)):
                values[i] = None
