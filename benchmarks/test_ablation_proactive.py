"""Ablation — proactive aggregation parameters (§4.3 design choice).

The push threshold (29 entries = one MTU in the paper) bounds the work a
read-triggered aggregation must do; the idle push timer bounds staleness
of cold directories; the grace cap bounds deferral under continuous load.
This sweep shows the read-latency / churn trade-off.
"""

from repro.bench import format_table
from repro.core import FSConfig, SwitchFSCluster
from repro.workloads import bootstrap, single_large_directory

from _util import one_shot, save_table

THRESHOLDS = [5, 29, 100000]  # the last one effectively disables pushes
ROUNDS = 8
# Large enough that each of the 8 file-owner servers accumulates well past
# the paper's 29-entry MTU threshold within one burst.
BURST = 400


def _statdir_latency(threshold):
    cluster = SwitchFSCluster(
        FSConfig(
            num_servers=8, cores_per_server=4, seed=83,
            proactive_push_entries=threshold,
        )
    )
    bootstrap(cluster, single_large_directory(8), warm_clients=[0])
    fs = cluster.client(0)
    latencies = []
    pushes = 0
    seq = 0
    for _ in range(ROUNDS):
        for _ in range(BURST):
            cluster.run_op(fs.create(f"/shared/f{seq}"))
            seq += 1
        t0 = cluster.sim.now
        cluster.run_op(fs.statdir("/shared"))
        latencies.append(cluster.sim.now - t0)
        cluster.run(until=cluster.sim.now + 2_000)
    pushes = sum(s.counters.get("proactive_pushes") for s in cluster.servers)
    return sum(latencies) / len(latencies), pushes


def test_proactive_threshold_ablation(benchmark):
    def run():
        rows = []
        for threshold in THRESHOLDS:
            latency, pushes = _statdir_latency(threshold)
            label = str(threshold) if threshold < 100000 else "disabled"
            rows.append([label, round(latency, 1), pushes])
        return rows

    rows = one_shot(benchmark, run)
    save_table(
        "ablation_proactive_threshold",
        format_table(
            f"Ablation: proactive push threshold vs statdir latency "
            f"({BURST} creates per round)",
            ["push threshold", "statdir latency us", "proactive pushes"], rows,
        ),
    )
    by = {r[0]: r for r in rows}
    # Disabling proactive pushes leaves all the work to the read path.
    assert by["disabled"][1] > by["29"][1]
    # Aggressive pushing trades read latency for push traffic.
    assert by["5"][2] > by["29"][2]
    assert by["5"][1] <= by["disabled"][1]
