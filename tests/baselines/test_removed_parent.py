"""A synchronous scheme writes the child before it updates the parent.
When the parent turns out to be gone the client gets ENOENT — and the
child inode must not stay behind in the KV store."""

import pytest

from repro.baselines import CephLikeCluster, CFSKVCluster, IndexFSCluster, InfiniFSCluster
from repro.core import FSConfig, FSError


def removed_parent(cluster_cls):
    """Client 0 has ``/d`` cached; client 1 removed it."""
    cluster = cluster_cls(FSConfig(num_servers=4, cores_per_server=2, seed=2))
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/d"))
    cluster.run_op(fs.create("/d/f"))  # resolves and caches /d
    cluster.run_op(fs.delete("/d/f"))
    dir_id = cluster.run_op(fs.statdir("/d"))["id"]
    cluster.run_op(cluster.client(1).rmdir("/d"))
    return cluster, fs, dir_id


def keys_under(cluster, dir_id):
    return [k for s in cluster.servers for k, _ in s.kv.scan_prefix(()) if k[1] == dir_id]


@pytest.mark.parametrize(
    "cluster_cls", [InfiniFSCluster, CFSKVCluster, IndexFSCluster, CephLikeCluster]
)
@pytest.mark.parametrize("op", ["create", "mkdir"])
def test_add_under_a_removed_parent_leaves_no_orphan(cluster_cls, op):
    cluster, fs, dir_id = removed_parent(cluster_cls)
    with pytest.raises(FSError) as err:
        cluster.run_op(getattr(fs, op)("/d/child"))
    assert err.value.code == "ENOENT"
    assert keys_under(cluster, dir_id) == []
    assert all(
        key[1] != dir_id for s in cluster.servers for key in s._dir_index.values()
    )
