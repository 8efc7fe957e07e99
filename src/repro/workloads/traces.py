"""Real-world trace synthesis (§6.6).

The paper replays two application traces; neither is public, but their
published structure fully determines shape-faithful synthetic versions:

* **CNN training** — training AlexNet on ImageNet: ~1.28 M files (scaled
  here) in 1000 directories; the trace covers the dataset's lifecycle:
  *download* (create every file), *access* (epochs of open/read/close in
  random order), *removal* (delete every file).
* **Thumbnail generation** — access 1 M images and create a thumbnail per
  image: per image open/read/close + create/write/close of the thumbnail
  file.

Both are many-small-file, metadata-intensive workloads (metadata ops are
>80% of operations).  Data reads/writes are modelled as a fixed-latency
datanode access on the client side (the metadata cluster is off that
path, as in the paper's 8-metadata + 8-datanode deployment).
"""

from __future__ import annotations

from typing import List, Tuple

from ..sim import make_rng
from .generator import DATA_LATENCY_US, OpStream, OpThunk, file_op
from .population import Population

__all__ = ["CNNTrainingTrace", "ThumbnailTrace", "trace_population"]


def trace_population(num_dirs: int, files_per_dir: int) -> Population:
    return Population(
        dirs=[f"class{i}" for i in range(num_dirs)],
        files_per_dir=files_per_dir,
        file_prefix="img",
    )


class _ScriptTrace(OpStream):
    """Replays an ``(op, path)`` script, wrapping around at its end."""

    def __init__(
        self,
        name: str,
        population: Population,
        data_latency_us: float,
        script: List[Tuple[str, str]],
    ):
        super().__init__(name)
        self.pop = population
        self.data_latency_us = data_latency_us
        self._script = script
        self._pos = 0

    def __len__(self) -> int:
        return len(self._script)

    def next_thunk(self) -> OpThunk:
        op, path = self._script[self._pos % len(self._script)]
        self._pos += 1
        thunk = file_op(op, path, self.data_latency_us)
        thunk.op_name = op
        return thunk


class CNNTrainingTrace(_ScriptTrace):
    """Download → epoch access → removal lifecycle over a class-directory tree."""

    def __init__(
        self,
        population: Population,
        epochs: int = 1,
        seed: int = 7,
        data_latency_us: float = DATA_LATENCY_US,
    ):
        rng = make_rng(seed, "cnn")
        files: List[Tuple[str, str]] = [
            (d, population.file_name(i))
            for d in population.dir_paths
            for i in range(population.files_per_dir)
        ]
        script: List[Tuple[str, str]] = []
        # Phase 1: download (create + write each file). Files are
        # pre-populated by bootstrap as the *download target namespace*;
        # the trace creates fresh epoch-local shard files alongside.
        for d, f in files:
            script.append(("create", f"{d}/dl-{f}"))
            script.append(("write", f"{d}/dl-{f}"))
        # Phase 2: epochs of randomised open/read/close.
        for _ in range(epochs):
            order = list(files)
            rng.shuffle(order)
            for d, f in order:
                script.append(("open", f"{d}/dl-{f}"))
                script.append(("read", f"{d}/dl-{f}"))
                script.append(("close", f"{d}/dl-{f}"))
        # Phase 3: removal.
        for d, f in files:
            script.append(("delete", f"{d}/dl-{f}"))
        super().__init__("cnn-training", population, data_latency_us, script)


class ThumbnailTrace(_ScriptTrace):
    """Per image: open/read/close the source, create/write/close a thumbnail."""

    def __init__(
        self,
        population: Population,
        seed: int = 7,
        data_latency_us: float = DATA_LATENCY_US,
    ):
        rng = make_rng(seed, "thumb")
        images = [
            (d, population.file_name(i))
            for d in population.dir_paths
            for i in range(population.files_per_dir)
        ]
        rng.shuffle(images)
        script: List[Tuple[str, str]] = []
        for d, f in images:
            script.append(("open", f"{d}/{f}"))
            script.append(("read", f"{d}/{f}"))
            script.append(("stat", f"{d}/{f}"))
            script.append(("close", f"{d}/{f}"))
            script.append(("create", f"{d}/thumb-{f}"))
            script.append(("write", f"{d}/thumb-{f}"))
            script.append(("close", f"{d}/thumb-{f}"))
        super().__init__("thumbnail", population, data_latency_us, script)
