"""§6.7 — crash recovery time.

The paper: after 8 servers create 10 M files in 100 K directories, a
crashed server recovers ~1.25 M inodes + ~1.25 M change-log entries in
5.77 s; after a switch failure, flushing all change-logs takes 3.82 s.
Recovery time is proportional to the number of records — the property
this benchmark reproduces at simulation scale.
"""

from repro.bench import format_table
from repro.core import FSConfig, SwitchFSCluster
from repro.workloads import bootstrap, multiple_directories

from _util import one_shot, save_table


def _populated_cluster(n_files: int):
    cluster = SwitchFSCluster(
        FSConfig(num_servers=8, cores_per_server=4, proactive_enabled=False)
    )
    bootstrap(cluster, multiple_directories(16, 2), warm_clients=[0])
    fs = cluster.client(0)
    for i in range(n_files):
        cluster.run_op(fs.create(f"/d{i % 16}/r{i}"))
    return cluster


def test_server_recovery_time(benchmark):
    def run():
        rows = []
        for n_files in (100, 400):
            cluster = _populated_cluster(n_files)
            server = cluster.servers[0]
            inodes = len(server.kv)
            pending = server.pending_changelog_entries()
            cluster.crash_server(0)
            duration = cluster.recover_server(0)
            rows.append([n_files, inodes, pending, round(duration, 1)])
        return rows

    rows = one_shot(benchmark, run)
    save_table(
        "recovery_server",
        format_table(
            "§6.7: server crash recovery (8 servers)",
            ["total creates", "server inodes", "pending cl entries", "recovery us"],
            rows,
        ),
    )
    # Recovery time grows with the amount of state to replay.
    assert rows[1][3] > rows[0][3]


def test_switch_recovery_time(benchmark):
    def run():
        rows = []
        for n_files in (100, 400):
            cluster = _populated_cluster(n_files)
            pending = cluster.total_pending_entries()
            duration = cluster.fail_switch()
            rows.append([n_files, pending, round(duration, 1)])
            assert cluster.total_pending_entries() == 0
        return rows

    rows = one_shot(benchmark, run)
    save_table(
        "recovery_switch",
        format_table(
            "§6.7: switch failure recovery (flush all change-logs)",
            ["total creates", "pending cl entries", "flush us"],
            rows,
        ),
    )
    assert rows[1][2] > rows[0][2]
