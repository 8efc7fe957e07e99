"""Namespace populations: pre-building directory trees for experiments.

The paper's experiments run against pre-created namespaces ("a single
directory with 10 million files", "1024 directories with 0.1 million
files each").  Creating millions of files through the full protocol
would dominate simulation wall-time, so :func:`bootstrap` installs
inodes, entries, and directory indexes **directly** into the servers'
KV stores — exactly the state a protocol-driven population would reach
after settling, minus the WAL history.

Client caches are pre-warmed with the created directories so that
experiments measure the operations under test, not cold path resolution
(the paper's clients are warm as well).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.client import ResolvedDir
from ..core.cluster import Cluster
from ..core.schema import (
    DirInode,
    FileInode,
    ROOT_ID,
    dir_entry,
    dir_entry_key,
    dir_meta_key,
    file_meta_key,
    fingerprint_of,
)

__all__ = ["Population", "bootstrap", "single_large_directory", "multiple_directories"]


@dataclass
class Population:
    """A namespace layout: directories under the root, files per directory."""

    dirs: List[str]  # directory names, all directly under "/"
    files_per_dir: int
    file_prefix: str = "pre"

    # Filled by bootstrap():
    dir_ids: Dict[str, int] = field(default_factory=dict)
    dir_fps: Dict[str, int] = field(default_factory=dict)

    @property
    def dir_paths(self) -> List[str]:
        return [f"/{d}" for d in self.dirs]

    def file_name(self, idx: int) -> str:
        return f"{self.file_prefix}{idx}"


def single_large_directory(num_files: int) -> Population:
    """The single-shared-directory hotspot layout (§6.2.1)."""
    return Population(dirs=["shared"], files_per_dir=num_files)


def multiple_directories(num_dirs: int = 1024, files_per_dir: int = 100) -> Population:
    """The 1024-directory uniform layout (§6.2.1)."""
    return Population(dirs=[f"d{i}" for i in range(num_dirs)], files_per_dir=files_per_dir)


def bootstrap(
    cluster: Cluster,
    population: Population,
    warm_clients: Optional[List[int]] = None,
) -> Population:
    """Install *population* into *cluster* directly (no protocol traffic).

    Placement follows the cluster's own — a membership view or a
    baseline's partition — so the installed state is exactly what
    protocol-driven population would have produced.

    Each directory's files go in in key (name) order, so every store
    keeps a directory's keys as one sorted list and a file costs its
    model state: an inode, a reference to the shared entry value and two
    keys (DESIGN.md §11).
    """
    now = cluster.sim.now
    placement = cluster.placement
    servers = {server.addr: server for server in cluster.servers}
    root_owner = servers[placement.root_owner()]
    file_entry = dir_entry(False, 0o644)
    for nonce, dname in enumerate(population.dirs, start=1):
        dir_path = f"/{dname}"
        fp = fingerprint_of(ROOT_ID, dname)
        dir_id = placement.dir_id(ROOT_ID, dname, nonce)
        population.dir_ids[dname] = dir_id
        population.dir_fps[dname] = fp
        owner = servers[placement.dir_owner(ROOT_ID, dname, dir_path)]
        inode = DirInode(dir_id, ROOT_ID, dname, fp, 0o755, now, now, population.files_per_dir)
        owner.kv.put(dir_meta_key(ROOT_ID, dname), inode, log=False)
        owner.index_directory(dir_id, dir_meta_key(ROOT_ID, dname))
        root_owner.kv.put(
            dir_entry_key(ROOT_ID, dname), dir_entry(True, 0o755), log=False
        )

        # In name order ("pre10" < "pre9"): each put is an in-order append
        # to the directory's sorted key list in the store.
        for fname in sorted(map(population.file_name, range(population.files_per_dir))):
            fowner = servers[placement.file_owner(dir_id, fname, dir_path)]
            fowner.kv.put(
                file_meta_key(dir_id, fname),
                FileInode(dir_id, fname, 0o644, now, now),
                log=False,
            )
            owner.kv.put(dir_entry_key(dir_id, fname), file_entry, log=False)

    root_key = dir_meta_key(0, "/")
    root = root_owner.kv.get(root_key)
    root_owner.kv.put(root_key, root.touched(now, len(population.dirs)), log=False)
    for client_idx in warm_clients or []:
        warm_client_cache(cluster, population, client_idx)
    return population


def warm_client_cache(
    cluster: Cluster, population: Population, client_idx: int = 0
) -> None:
    """Prime a client's metadata cache with the population's directories."""
    fs = cluster.client(client_idx)
    for dname in population.dirs:
        fs.prime_cache(
            f"/{dname}",
            ResolvedDir(
                id=population.dir_ids[dname],
                fingerprint=population.dir_fps[dname],
                pid=ROOT_ID,
                name=dname,
                perm=0o755,
                ancestor_ids=(population.dir_ids[dname],),
            ),
        )
