"""WAL checkpointing (the §6.7 recovery optimisation)."""

from repro.core import FSConfig, SwitchFSCluster


def build(n_files=40):
    cluster = SwitchFSCluster(
        FSConfig(num_servers=2, cores_per_server=2, seed=19, proactive_enabled=False)
    )
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/d"))
    for i in range(n_files):
        cluster.run_op(fs.create(f"/d/f{i}"))
    return cluster, fs


def run_checkpoint(cluster, server):
    return cluster.sim.run_process(
        cluster.sim.spawn(server.checkpoint(), name="ckpt")
    )


class TestCheckpoint:
    def test_checkpoint_truncates_wal(self):
        cluster, fs = build()
        server = cluster.servers[0]
        before = len(server.wal)
        assert before > 0
        run_checkpoint(cluster, server)
        assert len(server.wal) == 0

    def test_recovery_from_checkpoint_restores_state(self):
        cluster, fs = build()
        server = cluster.servers[0]
        inodes = len(server.kv)
        pending = server.pending_changelog_entries()
        run_checkpoint(cluster, server)
        cluster.crash_server(0)
        cluster.recover_server(0)
        assert len(server.kv) == inodes
        assert server.pending_changelog_entries() == pending
        listing = cluster.run_op(fs.readdir("/d"))
        assert len(listing["entries"]) == 40

    def test_post_checkpoint_writes_replay_from_tail(self):
        cluster, fs = build(20)
        for server in cluster.servers:
            run_checkpoint(cluster, server)
        for i in range(20, 30):
            cluster.run_op(fs.create(f"/d/f{i}"))
        for idx in range(2):
            cluster.crash_server(idx)
        for idx in range(2):
            cluster.recover_server(idx)
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == sorted(f"f{i}" for i in range(30))

    def test_checkpoint_speeds_up_recovery(self):
        def recovery_time(with_checkpoint):
            cluster, fs = build(120)
            if with_checkpoint:
                run_checkpoint(cluster, cluster.servers[0])
                # a little post-checkpoint work
                for i in range(120, 125):
                    cluster.run_op(fs.create(f"/d/g{i}"))
            cluster.crash_server(0)
            return cluster.recover_server(0)

        assert recovery_time(True) < recovery_time(False)

    def test_checkpoint_then_ack_of_old_lsn_is_tolerated(self):
        """Aggregation acks referencing checkpoint-truncated WAL records
        must not crash (mark_applied_if_present)."""
        cluster, fs = build(10)
        for server in cluster.servers:
            run_checkpoint(cluster, server)
        # Trigger aggregation; entries' lsns were truncated by checkpoint.
        info = cluster.run_op(fs.statdir("/d"))
        assert info["entry_count"] == 10
        cluster.run_op(fs.statdir("/"))  # flush the mkdir's entry on root
        cluster.run(until=cluster.sim.now + 2_000)
        assert cluster.total_pending_entries() == 0
