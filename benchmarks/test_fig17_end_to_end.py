"""Figure 17 — end-to-end throughput on real-world workloads (§6.6).

Three workloads on 8 metadata servers:

* **data center services** — the PanguFS-derived mix of Table 5 with
  80/20 directory skew;
* **CNN training** — the ImageNet/AlexNet lifecycle trace;
* **thumbnail** — image access + thumbnail creation.

SwitchFS must beat CFS-KV by tens of percent, IndexFS by ~2x on metadata
(1.1x end-to-end), and Ceph by orders of magnitude.
"""

from repro.bench import format_table, make_cluster, run_stream, scaled_config
from repro.workloads import (
    CNNTrainingTrace,
    DATA_CENTER_SERVICES_MIX,
    MixStream,
    ThumbnailTrace,
    bootstrap,
    multiple_directories,
    trace_population,
)

from _util import one_shot, save_table

SYSTEMS = ["SwitchFS", "CFS-KV", "IndexFS", "Ceph"]
INFLIGHT = 64


def _run_workload(system: str, workload: str):
    config = scaled_config(num_servers=8, cores_per_server=4)
    cluster = make_cluster(system, config)
    total = 3000 if system != "Ceph" else 800
    if workload == "dcs":
        pop = bootstrap(cluster, multiple_directories(100, 10), warm_clients=[0])
        stream = MixStream(DATA_CENTER_SERVICES_MIX, pop, seed=61, data_latency_us=0.0)
    elif workload == "cnn":
        pop = bootstrap(cluster, trace_population(25, 8), warm_clients=[0])
        stream = CNNTrainingTrace(pop, epochs=1, seed=61)
        total = min(total, len(stream))
    else:
        pop = bootstrap(cluster, trace_population(25, 8), warm_clients=[0])
        stream = ThumbnailTrace(pop, seed=61)
        total = min(total, len(stream))
    result = run_stream(cluster, stream, total_ops=total, inflight=INFLIGHT)
    return result.throughput_kops


WORKLOADS = [("dcs", "data center services"), ("cnn", "CNN training"), ("thumb", "thumbnail")]


def test_fig17_end_to_end(benchmark):
    def run():
        table = {}
        for key, _label in WORKLOADS:
            for system in SYSTEMS:
                table[(key, system)] = round(_run_workload(system, key), 1)
        return table

    table = one_shot(benchmark, run)
    rows = [
        [label] + [table[(key, system)] for system in SYSTEMS]
        for key, label in WORKLOADS
    ]
    save_table(
        "fig17_end_to_end",
        format_table(
            "Fig 17: end-to-end throughput (Kops/s), 8 servers, 64 in flight",
            ["workload"] + SYSTEMS, rows,
        ),
    )

    for key, _label in WORKLOADS:
        switchfs = table[(key, "SwitchFS")]
        # SwitchFS leads CFS-KV (paper: +30.1% end-to-end).
        assert switchfs > table[(key, "CFS-KV")]
        # SwitchFS well ahead of IndexFS (paper: 1.1x end-to-end, 2.1x metadata).
        assert switchfs > table[(key, "IndexFS")]
        # Ceph is far behind (paper: up to 21.1x).
        assert switchfs > table[(key, "Ceph")] * 3
