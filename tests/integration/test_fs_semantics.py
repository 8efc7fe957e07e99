"""End-to-end POSIX metadata semantics on the full SwitchFS cluster.

The invariant under test throughout: once an operation has *returned* to
the client, every later directory read observes its effect — even though
the directory update itself was deferred (visibility, §1/§4.1)."""

import pytest

from repro.bench import SYSTEMS
from repro.core import FSConfig, FSError, SwitchFSCluster
from repro.net import RpcRequest


@pytest.fixture
def cluster():
    return SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2, seed=11))


def record_sends(monkeypatch, cluster):
    """Log every packet *cluster* transmits from now on, at send time, as
    ``(rpc method or None, stale-set op name or None)``."""
    log = []
    send = cluster.net.send

    def recording_send(packet):
        payload, header = packet.payload, packet.header
        log.append((
            payload.method if isinstance(payload, RpcRequest) else None,
            None if header is None else header.op.name,
        ))
        send(packet)

    monkeypatch.setattr(cluster.net, "send", recording_send)
    return log


@pytest.fixture
def fs(cluster):
    return cluster.client(0)


class TestCreateDelete:
    def test_create_then_stat(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/file"))
        info = cluster.run_op(fs.stat("/d/file"))
        assert info["name"] == "file"

    def test_create_duplicate_eexist(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.create("/d/f"))
        assert err.value.code == "EEXIST"

    def test_delete_missing_enoent(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.delete("/d/ghost"))
        assert err.value.code == "ENOENT"

    def test_delete_then_stat_enoent(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        cluster.run_op(fs.delete("/d/f"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.stat("/d/f"))
        assert err.value.code == "ENOENT"

    def test_create_visible_in_readdir_immediately(self, cluster, fs):
        """The crux: an async create must be visible to the next readdir."""
        cluster.run_op(fs.mkdir("/d"))
        for i in range(10):
            cluster.run_op(fs.create(f"/d/f{i}"))
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == sorted(f"f{i}" for i in range(10))

    def test_statdir_counts_async_updates(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        for i in range(5):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(fs.delete("/d/f0"))
        info = cluster.run_op(fs.statdir("/d"))
        assert info["entry_count"] == 4

    def test_statdir_mtime_advances(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        before = cluster.run_op(fs.statdir("/d"))["mtime"]
        cluster.run_op(fs.create("/d/f"))
        after = cluster.run_op(fs.statdir("/d"))["mtime"]
        assert after > before


class TestMkdirRmdir:
    def test_nested_mkdir_and_create(self, cluster, fs):
        cluster.run_op(fs.mkdir("/a"))
        cluster.run_op(fs.mkdir("/a/b"))
        cluster.run_op(fs.mkdir("/a/b/c"))
        cluster.run_op(fs.create("/a/b/c/deep"))
        assert cluster.run_op(fs.stat("/a/b/c/deep"))["name"] == "deep"

    def test_mkdir_duplicate_eexist(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.mkdir("/d"))
        assert err.value.code == "EEXIST"

    def test_mkdir_visible_in_parent_readdir(self, cluster, fs):
        cluster.run_op(fs.mkdir("/a"))
        cluster.run_op(fs.mkdir("/a/sub"))
        listing = cluster.run_op(fs.readdir("/a"))
        assert listing["entries"] == ["sub"]

    def test_rmdir_nonempty_rejected(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.rmdir("/d"))
        assert err.value.code == "ENOTEMPTY"
        # The directory stays usable after the failed rmdir.
        cluster.run_op(fs.create("/d/g"))
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 2

    def test_rmdir_of_non_empty_directory_uninvalidates(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        for name in ("f000", "f001"):
            cluster.run_op(fs.create(f"/d/{name}"))
        with pytest.raises(FSError):
            cluster.run_op(fs.rmdir("/d"))
        # The directory must stay fully usable after the failed rmdir.
        result = cluster.run_op(fs.readdir("/d"))
        assert result["entries"] == ["f000", "f001"]
        cluster.run_op(fs.create("/d/after"))
        assert "after" in cluster.run_op(fs.readdir("/d"))["entries"]

    def test_rmdir_empty_succeeds(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        cluster.run_op(fs.delete("/d/f"))
        cluster.run_op(fs.rmdir("/d"))
        with pytest.raises(FSError):
            cluster.run_op(fs.statdir("/d"))

    def test_rmdir_missing_enoent(self, cluster, fs):
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.rmdir("/ghost"))
        assert err.value.code == "ENOENT"

    # The ids keep the names of the per-system classes the SYSTEMS rows
    # replaced.
    @pytest.mark.parametrize("make", [
        pytest.param(SYSTEMS[name], id=f"{name.replace('-', '')}Cluster")
        for name in ("SwitchFS", "InfiniFS", "CFS-KV")
    ])
    def test_mkdir_caches_what_it_made(self, make, monkeypatch):
        """mkdir returns the new directory's id and fingerprint and the
        client keeps them: the rmdir and the create that follow resolve
        the directory without a lookup_dir."""
        cluster = make(FSConfig(num_servers=4, cores_per_server=2, seed=11))
        fs = cluster.client(0)
        sent = record_sends(monkeypatch, cluster)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        cluster.run_op(fs.delete("/d/f"))
        cluster.run_op(fs.rmdir("/d"))
        methods = [method for method, _ in sent]
        assert methods.count("lookup_dir") == 0
        assert methods.count("rmdir") == 1

    def test_create_under_removed_dir_fails(self, cluster, fs):
        cluster.run_op(fs.mkdir("/dying"))
        cluster.run_op(fs.rmdir("/dying"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.create("/dying/f"))
        assert err.value.code in ("ENOENT", "EINVALIDPATH")

    def test_stale_cache_under_removed_dir_other_client(self, cluster):
        """Client 1 cached /dying; client 0 removes it; client 1's later
        create must be rejected via the invalidation list."""
        fs0, fs1 = cluster.client(0), cluster.client(1)
        cluster.run_op(fs0.mkdir("/dying"))
        cluster.run_op(fs1.statdir("/dying"))  # populates fs1's cache
        cluster.run_op(fs0.rmdir("/dying"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs1.create("/dying/f"))
        assert err.value.code in ("ENOENT", "EINVALIDPATH")


class TestOnTheWire:
    @staticmethod
    def make():
        cluster = SwitchFSCluster(
            FSConfig(num_servers=3, cores_per_server=2, seed=44, proactive_enabled=False)
        )
        return cluster, cluster.client(0)

    def test_create_is_a_handful_of_messages(self, monkeypatch):
        """One-RTT protocol: a create costs the request and the response
        (the switch multicasts it, not the server), nothing more."""
        cluster, fs = self.make()
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/warm"))  # warm the resolution cache
        sent = record_sends(monkeypatch, cluster)
        for i in range(10):
            cluster.run_op(fs.create(f"/d/f{i}"))
        assert [method for method, _ in sent].count("create") == 10
        assert len(sent) <= 30

    def test_stale_set_ops_ride_the_packets(self, monkeypatch):
        cluster, fs = self.make()
        sent = record_sends(monkeypatch, cluster)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        # The create's response left the server carrying an INSERT.
        ops = [op for _, op in sent]
        assert "INSERT" in ops
        cluster.run_op(fs.statdir("/d"))
        ops = [op for _, op in sent]
        assert "QUERY" in ops
        cluster.run(until=cluster.sim.now + 2_000)
        assert "REMOVE" in [op for _, op in sent]


class TestOpenCloseStat:
    def test_open_close(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        assert cluster.run_op(fs.open("/d/f"))["name"] == "f"
        assert cluster.run_op(fs.close("/d/f"))["status"] == "ok"

    def test_open_missing_enoent(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.open("/d/nope"))
        assert err.value.code == "ENOENT"

    def test_stat_missing_parent(self, cluster, fs):
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.stat("/nosuchdir/f"))
        assert err.value.code == "ENOENT"


class TestRename:
    def test_file_rename_same_dir(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/old"))
        cluster.run_op(fs.rename("/d/old", "/d/new"))
        assert cluster.run_op(fs.stat("/d/new"))["name"] == "new"
        with pytest.raises(FSError):
            cluster.run_op(fs.stat("/d/old"))

    def test_file_rename_across_dirs_updates_listings(self, cluster, fs):
        cluster.run_op(fs.mkdir("/src"))
        cluster.run_op(fs.mkdir("/dst"))
        cluster.run_op(fs.create("/src/f"))
        cluster.run_op(fs.rename("/src/f", "/dst/g"))
        assert cluster.run_op(fs.readdir("/src"))["entries"] == []
        assert cluster.run_op(fs.readdir("/dst"))["entries"] == ["g"]
        assert cluster.run_op(fs.statdir("/src"))["entry_count"] == 0
        assert cluster.run_op(fs.statdir("/dst"))["entry_count"] == 1

    def test_rename_missing_source_enoent(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.rename("/d/ghost", "/d/new"))
        assert err.value.code == "ENOENT"

    def test_rename_existing_destination_eexist(self, cluster, fs):
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/a"))
        cluster.run_op(fs.create("/d/b"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.rename("/d/a", "/d/b"))
        assert err.value.code == "EEXIST"
        # Both files still present (atomicity: the failed rename changed nothing).
        assert cluster.run_op(fs.stat("/d/a"))["name"] == "a"
        assert cluster.run_op(fs.stat("/d/b"))["name"] == "b"

    def test_dir_rename_moves_children(self, cluster, fs):
        cluster.run_op(fs.mkdir("/olddir"))
        cluster.run_op(fs.create("/olddir/f"))
        cluster.run_op(fs.rename("/olddir", "/newdir"))
        assert cluster.run_op(fs.readdir("/newdir"))["entries"] == ["f"]
        assert cluster.run_op(fs.stat("/newdir/f"))["name"] == "f"
        with pytest.raises(FSError):
            cluster.run_op(fs.statdir("/olddir"))

    def test_dir_rename_into_own_subtree_rejected(self, cluster, fs):
        cluster.run_op(fs.mkdir("/a"))
        cluster.run_op(fs.mkdir("/a/b"))
        with pytest.raises(FSError) as err:
            cluster.run_op(fs.rename("/a", "/a/b/a2"))
        assert err.value.code == "EINVAL"

    def test_rename_after_pending_async_updates(self, cluster, fs):
        """Rename must aggregate pending change-logs first (§4.2)."""
        cluster.run_op(fs.mkdir("/src"))
        cluster.run_op(fs.mkdir("/dst"))
        for i in range(6):
            cluster.run_op(fs.create(f"/src/f{i}"))
        cluster.run_op(fs.rename("/src/f0", "/dst/f0"))
        src = cluster.run_op(fs.readdir("/src"))
        dst = cluster.run_op(fs.readdir("/dst"))
        assert "f0" not in src["entries"] and "f0" in dst["entries"]
        assert src["entry_count"] == 5
        assert dst["entry_count"] == 1


class TestScale:
    @pytest.mark.parametrize("num_servers", [1, 2, 8])
    def test_semantics_hold_at_any_scale(self, num_servers):
        cluster = SwitchFSCluster(
            FSConfig(num_servers=num_servers, cores_per_server=2, seed=5)
        )
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(8):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(fs.delete("/d/f3"))
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == sorted(
            f"f{i}" for i in range(8) if i != 3
        )
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 7

    def test_concurrent_creates_all_visible(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))

        def creator(i):
            yield from fs.create(f"/d/c{i}")

        procs = [cluster.sim.spawn(creator(i), name=f"c{i}") for i in range(20)]
        from repro.sim import AllOf

        def join():
            yield AllOf(cluster.sim, procs)

        cluster.sim.run_process(cluster.sim.spawn(join(), name="join"))
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == sorted(f"c{i}" for i in range(20))
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 20


class TestSettle:
    def test_settle_drains_changelogs(self):
        cluster = SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2))
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(40):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.settle()
        assert cluster.total_pending_entries() == 0
        # After settling, the proactive path has applied everything and
        # cleared the switch: a statdir needs no aggregation.
        before = cluster.server_by_addr(
            cluster.membership.current.dir_owner_by_fp(fs._cache["/d"].fingerprint)
        ).counters.get("aggregations")
        info = cluster.run_op(fs.statdir("/d"))
        after = cluster.server_by_addr(
            cluster.membership.current.dir_owner_by_fp(fs._cache["/d"].fingerprint)
        ).counters.get("aggregations")
        assert info["entry_count"] == 40
        assert after == before
