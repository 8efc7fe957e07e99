"""Ablation — WAL checkpointing (the §6.7 recovery optimisation).

The paper notes that server recovery time "is proportional to the number
of operations to recover, which can be largely optimized by
checkpointing".  This bench quantifies that: recovery time with a full
WAL vs. with a checkpoint plus a short tail.
"""

from repro.bench import format_table
from repro.core import FSConfig, SwitchFSCluster
from repro.workloads import bootstrap, multiple_directories

from _util import one_shot, save_table


def _drill(n_files: int, with_checkpoint: bool, tail: int = 20):
    cluster = SwitchFSCluster(
        FSConfig(num_servers=4, cores_per_server=4, proactive_enabled=False)
    )
    bootstrap(cluster, multiple_directories(8, 2), warm_clients=[0])
    fs = cluster.client(0)
    for i in range(n_files):
        cluster.run_op(fs.create(f"/d{i % 8}/r{i}"))
    if with_checkpoint:
        for server in cluster.servers:
            cluster.sim.run_process(cluster.sim.spawn(server.checkpoint(), name="ck"))
        for i in range(tail):
            cluster.run_op(fs.create(f"/d{i % 8}/tail{i}"))
    wal_len = len(cluster.servers[0].wal)
    cluster.crash_server(0)
    duration = cluster.recover_server(0)
    # State must be complete either way.
    listing = cluster.run_op(fs.readdir("/d0"))
    expected = 2 + len([i for i in range(n_files) if i % 8 == 0]) + (
        len([i for i in range(tail) if i % 8 == 0]) if with_checkpoint else 0
    )
    assert len(listing["entries"]) == expected
    return duration, wal_len


def test_checkpoint_recovery_ablation(benchmark):
    def run():
        rows = []
        for n_files in (200, 600):
            full, wal_full = _drill(n_files, with_checkpoint=False)
            ckpt, wal_ckpt = _drill(n_files, with_checkpoint=True)
            rows.append([n_files, wal_full, round(full, 1), wal_ckpt, round(ckpt, 1),
                         f"{full / ckpt:.1f}x"])
        return rows

    rows = one_shot(benchmark, run)
    save_table(
        "ablation_checkpoint_recovery",
        format_table(
            "Ablation: server recovery, full-WAL replay vs checkpoint + tail",
            ["creates", "WAL records", "replay us", "WAL after ckpt",
             "ckpt recovery us", "speedup"],
            rows,
        ),
    )
    for row in rows:
        assert row[4] < row[2]  # checkpointed recovery is faster
    # The speedup grows with history length.
    assert rows[1][2] / rows[1][4] >= rows[0][2] / rows[0][4] * 0.8
