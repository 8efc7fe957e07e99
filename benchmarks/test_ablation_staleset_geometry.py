"""Ablation — stale-set geometry (§5.3 design choice).

The set-associative layout trades on-chip memory for overflow rate: too
few sets/ways and inserts overflow, forcing synchronous fallbacks that
re-expose cross-server latency.  This sweep shrinks the geometry and
watches fallbacks rise while visibility stays intact.
"""

from repro.bench import format_table, run_stream
from repro.core import FSConfig, SwitchFSCluster
from repro.workloads import FixedOpStream, bootstrap, multiple_directories

from _util import one_shot, save_table

GEOMETRIES = [
    ("10 stages x 2^10", 10, 10),
    ("4 stages x 2^6", 4, 6),
    ("2 stages x 2^4", 2, 4),
    ("1 stage  x 2^2", 1, 2),
]
OPS = 1500


def _run(stages, bits):
    cluster = SwitchFSCluster(
        FSConfig(
            num_servers=8, cores_per_server=4, seed=81,
            stale_stages=stages, stale_index_bits=bits,
        )
    )
    pop = bootstrap(cluster, multiple_directories(128, 4), warm_clients=[0])
    stream = FixedOpStream("create", pop, seed=81)
    result = run_stream(cluster, stream, total_ops=OPS, inflight=64)
    stats = cluster.switch_stats()
    fallbacks = sum(s.counters.get("sync_fallbacks") for s in cluster.servers)
    return {
        "tput": result.throughput_kops,
        "capacity": stats.capacity,
        "overflows": stats.insert_overflows,
        "fallbacks": fallbacks,
    }


def test_staleset_geometry_ablation(benchmark):
    def run():
        rows = []
        for label, stages, bits in GEOMETRIES:
            m = _run(stages, bits)
            rows.append([label, m["capacity"], m["overflows"], m["fallbacks"],
                         round(m["tput"], 1)])
        return rows

    rows = one_shot(benchmark, run)
    save_table(
        "ablation_staleset_geometry",
        format_table(
            "Ablation: stale-set geometry vs overflow/fallback (creates, 128 dirs)",
            ["geometry", "capacity", "overflows", "fallbacks", "Kops/s"], rows,
        ),
    )
    # Overflows must rise monotonically as capacity shrinks to well below
    # the working set, and the full-size set must see none.
    assert rows[0][2] == 0
    assert rows[-1][2] > 0
    assert rows[-1][3] > 0
    # Even overflowing configurations keep full throughput of correctness;
    # throughput degrades gracefully (fallbacks are the sync path).
    assert rows[-1][4] > rows[0][4] * 0.2
