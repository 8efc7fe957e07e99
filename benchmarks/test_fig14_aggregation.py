"""Figure 14 — directory aggregation overhead.

Repeatedly: a burst of creates into one directory, then a single statdir.
(a) statdir latency grows with the burst size and converges once
    proactive pushes cap the per-aggregation work (29 entries per MTU).
(b) with a fixed 100-create burst, latency grows with the server count
    (more scattered change-logs to pull).
"""

from repro.bench import Series, format_table
from repro.core import FSConfig, SwitchFSCluster
from repro.workloads import bootstrap, single_large_directory

from _util import one_shot, save_table

ROUNDS = 12


def _statdir_after_creates(num_servers: int, preceding: int) -> float:
    cluster = SwitchFSCluster(
        FSConfig(num_servers=num_servers, cores_per_server=4)
    )
    bootstrap(cluster, single_large_directory(8), warm_clients=[0])
    fs = cluster.client(0)
    latencies = []
    seq = 0
    for _ in range(ROUNDS):
        for _ in range(preceding):
            cluster.run_op(fs.create(f"/shared/burst{seq}"))
            seq += 1
        t0 = cluster.sim.now
        cluster.run_op(fs.statdir("/shared"))
        latencies.append(cluster.sim.now - t0)
        # Let the proactive machinery settle between rounds, as the gaps
        # between application bursts do.
        cluster.run(until=cluster.sim.now + 2_000)
    return sum(latencies) / len(latencies)


def test_fig14a_latency_vs_burst_size(benchmark):
    def run():
        series = Series("Fig 14(a): statdir latency after creates (8 servers)",
                        "#preceding creates", "us")
        for n in (1, 10, 50, 100, 400):
            series.add("SwitchFS", n, round(_statdir_after_creates(8, n), 1))
        return series

    series = one_shot(benchmark, run)
    headers, rows = series.as_table()
    save_table("fig14a_statdir_after_creates", format_table(series.title, headers, rows))
    line = series.lines["SwitchFS"]
    # Latency grows with the burst...
    assert line[100] > line[1]
    # ...but converges: proactive pushes bound the entries applied in the
    # read-triggered aggregation (paper: plateau ~500 us).
    assert line[400] < line[100] * 2.5


def test_fig14b_latency_vs_servers(benchmark):
    def run():
        series = Series("Fig 14(b): statdir latency after 100 creates",
                        "#servers", "us")
        for n in (2, 4, 8, 16):
            series.add("SwitchFS", n, round(_statdir_after_creates(n, 100), 1))
        return series

    series = one_shot(benchmark, run)
    headers, rows = series.as_table()
    save_table("fig14b_statdir_vs_servers", format_table(series.title, headers, rows))
    line = series.lines["SwitchFS"]
    # More servers -> more change-logs below the push threshold -> more
    # entries left to aggregate on the read path.
    assert line[16] > line[2]
