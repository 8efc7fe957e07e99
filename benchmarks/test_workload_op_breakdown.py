"""Supplementary analysis — per-operation latency inside the DCS mix.

Not a paper figure, but the decomposition behind Figure 17: where the
end-to-end win comes from (deferred create/delete and cheap directory
reads) and what rename costs under each system.
"""

from repro.bench import format_table, make_cluster, run_stream, scaled_config
from repro.workloads import (
    DATA_CENTER_SERVICES_MIX,
    MixStream,
    bootstrap,
    multiple_directories,
)

from _util import one_shot, save_table

SYSTEMS = ["SwitchFS", "CFS-KV"]
SHOW_OPS = ["open", "stat", "create", "delete", "rename", "readdir"]


def test_dcs_per_op_latency(benchmark):
    def run():
        table = {}
        for system in SYSTEMS:
            config = scaled_config(num_servers=8, cores_per_server=4)
            cluster = make_cluster(system, config)
            pop = bootstrap(cluster, multiple_directories(100, 10), warm_clients=[0])
            stream = MixStream(
                DATA_CENTER_SERVICES_MIX, pop, seed=91, data_latency_us=0.0
            )
            result = run_stream(cluster, stream, total_ops=4000, inflight=64)
            for op in SHOW_OPS:
                if result.latency.count(op):
                    table[(system, op)] = result.latency.mean(op)
        return table

    table = one_shot(benchmark, run)
    rows = [
        [op] + [round(table.get((system, op), float("nan")), 1) for system in SYSTEMS]
        for op in SHOW_OPS
        if any((system, op) in table for system in SYSTEMS)
    ]
    save_table(
        "workload_op_breakdown",
        format_table(
            "DCS mix: per-op average latency (us), 8 servers, 64 in flight",
            ["op"] + SYSTEMS, rows,
        ),
    )
    # The deferred-update ops must be where SwitchFS wins.
    assert table[("SwitchFS", "create")] < table[("CFS-KV", "create")]
    assert table[("SwitchFS", "delete")] < table[("CFS-KV", "delete")]
