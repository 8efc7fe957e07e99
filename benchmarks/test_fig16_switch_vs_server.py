"""Figure 16 — programmable switch vs. a regular server for the stale set.

(a) latency: the server backend adds one RTT to every stale-set
    operation, inflating create and statdir latency (paper: +24.1% and
    +13.1%);
(b) throughput: the stale-set server's cores cap statdir throughput (the
    paper's wall is ~11 Mops/s with 12 cores; we configure a
    proportionally scaled-down wall) while the switch backend scales with
    metadata servers.
"""

from repro.bench import Series, format_table, run_stream
from repro.core import FSConfig, SwitchFSCluster
from repro.workloads import FixedOpStream, bootstrap, multiple_directories

from _util import one_shot, save_table

OPS = 1500


def _cluster(backend: str, num_servers: int = 8, **overrides):
    cfg = dict(
        num_servers=num_servers, cores_per_server=4, seed=51, stale_backend=backend
    )
    cfg.update(overrides)
    return SwitchFSCluster(FSConfig(**cfg))


def _latency(backend: str, op: str) -> float:
    cluster = _cluster(backend)
    pop = bootstrap(cluster, multiple_directories(64, 8), warm_clients=[0])
    stream = FixedOpStream(op, pop, seed=51)
    result = run_stream(cluster, stream, total_ops=400, inflight=1)
    return result.mean_latency_us


def test_fig16a_latency(benchmark):
    def run():
        rows = []
        for op in ("create", "statdir"):
            sw = _latency("switch", op)
            srv = _latency("server", op)
            rows.append([op, round(sw, 2), round(srv, 2),
                         f"+{(srv / sw - 1) * 100:.1f}%"])
        return rows

    rows = one_shot(benchmark, run)
    save_table(
        "fig16a_backend_latency",
        format_table(
            "Fig 16(a): latency, in-network vs server-hosted stale set",
            ["op", "switch us", "server us", "overhead"], rows,
        ),
    )
    by = {r[0]: r for r in rows}
    for op in ("create", "statdir"):
        assert by[op][2] > by[op][1]          # server backend is slower
        assert by[op][2] < by[op][1] * 1.6    # ...by about an RTT, not more


def test_fig16b_scalability(benchmark):
    def run():
        series = Series(
            "Fig 16(b): statdir throughput vs metadata servers",
            "#servers", "Kops/s",
        )
        for n in (2, 4, 8, 16):
            for backend, label in (("switch", "switch"), ("server", "stale-set server")):
                # Scale the stale-set server down (1 core) so its
                # throughput wall is reachable at simulation scale, as the
                # paper's 12-core wall is at testbed scale.
                cluster = _cluster(backend, num_servers=n, staleset_server_cores=1,
                                   staleset_server_op_us=2.0)
                pop = bootstrap(cluster, multiple_directories(128, 4), warm_clients=[0])
                stream = FixedOpStream("statdir", pop, seed=51)
                result = run_stream(cluster, stream, total_ops=OPS, inflight=64)
                series.add(label, n, round(result.throughput_kops, 1))
        return series

    series = one_shot(benchmark, run)
    headers, rows = series.as_table()
    save_table("fig16b_backend_scalability", format_table(series.title, headers, rows))
    switch = series.lines["switch"]
    server = series.lines["stale-set server"]
    assert switch[16] > switch[2] * 2.5       # switch backend scales
    assert server[16] < server[2] * 2.0       # server backend hits its wall
    assert switch[16] > server[16] * 1.5
