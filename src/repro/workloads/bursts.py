"""Operation bursts (§2.1, §6.3).

An operation burst is a group of spatially related operations performed
in a short time — e.g. a compute engine renaming its outputs, or EDA
tools batch-creating temporary files.  :class:`BurstStream` models the
paper's §6.3 workload: successive groups of ``burst_size`` file creates,
each group targeting one directory, directories chosen uniformly.
"""

from __future__ import annotations

from typing import Dict

from ..sim import make_rng
from .generator import OpStream, OpThunk
from .population import Population

__all__ = ["BurstStream"]


class BurstStream(OpStream):
    """Bursts of consecutive creates in one directory at a time."""

    def __init__(self, population: Population, burst_size: int, seed: int = 1):
        super().__init__(f"burst-{burst_size}")
        if burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {burst_size}")
        self.pop = population
        self.burst_size = burst_size
        self._rng = make_rng(seed, "burst")
        self._dirs = population.dir_paths
        self._current_dir = self._dirs[0]
        self._remaining = 0
        self._seq: Dict[str, int] = {}

    def next_thunk(self) -> OpThunk:
        if self._remaining == 0:
            self._current_dir = self._dirs[self._rng.randrange(len(self._dirs))]
            self._remaining = self.burst_size
        self._remaining -= 1
        d = self._current_dir
        seq = self._seq.get(d, 0)
        self._seq[d] = seq + 1
        path = f"{d}/b{seq}"
        return lambda fs: fs.create(path)
