"""SwitchFS core: the paper's primary contribution.

Public surface:

* :class:`SwitchFSCluster` — assemble a simulated deployment;
* :class:`FSConfig` / :class:`PerfModel` — cluster shape, feature flags
  (ablations), and the calibrated performance model;
* :class:`LibFS` — the client library (POSIX metadata operations);
* :class:`MetadataServer` — one metadata server (usually managed by the
  cluster);
* schema helpers (fingerprints, partitioning) and error codes.
"""

from .changelog import ChangeLog, ChangeLogEntry, ChangeLogTable, ChangeOp, RecastLog
from .client import LibFS, ResolvedDir, split_path
from .cluster import SwitchFSCluster
from .config import FSConfig, PerfModel
from ..errors import (
    EEXIST,
    EINVAL,
    EINVALIDPATH,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    FSError,
    fs_error,
)
from .invalidation import InvalidationList
from .schema import (
    ROOT_ID,
    DirEntry,
    DirInode,
    FileInode,
    dir_entry_key,
    dir_meta_key,
    file_meta_key,
    fingerprint_of,
    new_dir_id,
    owner_of_dir,
    owner_of_file,
    root_inode,
)
from .server import MetadataServer, ServerRuntime
from .staleset_backend import ServerBackendClient, StaleSetServer

__all__ = [
    "SwitchFSCluster",
    "FSConfig",
    "PerfModel",
    "LibFS",
    "ResolvedDir",
    "split_path",
    "MetadataServer",
    "ServerRuntime",
    "StaleSetServer",
    "ServerBackendClient",
    "ChangeLog",
    "ChangeLogEntry",
    "ChangeLogTable",
    "ChangeOp",
    "RecastLog",
    "InvalidationList",
    "FSError",
    "fs_error",
    "EEXIST",
    "ENOENT",
    "ENOTEMPTY",
    "ENOTDIR",
    "EINVAL",
    "EINVALIDPATH",
    "ROOT_ID",
    "DirInode",
    "FileInode",
    "DirEntry",
    "dir_meta_key",
    "dir_entry_key",
    "file_meta_key",
    "fingerprint_of",
    "new_dir_id",
    "owner_of_dir",
    "owner_of_file",
    "root_inode",
]
