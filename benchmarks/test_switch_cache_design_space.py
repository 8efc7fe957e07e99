"""Beyond the paper — switch design space: stale-set only vs. dentry
cache + stale set (DESIGN.md §15; Fletch in PAPERS.md).

Two workloads over one shared directory of 512 files, three cache arms,
every point a fresh 8-server SwitchFS cluster with 64 requests in flight:

* ``hotspot_stat`` — every op stats a pre-populated file: the read-heavy
  hotspot where serving lookups from the pipeline should pay most;
* ``dcs_mix`` — the Table 5 data-center mix (~65 % open/stat plus the full
  mutation surface), which puts the EVICT/coherence path on the run.

Arms: ``off`` is the stale-set-only datapath; ``small`` (2 stages x 2^4 =
32 lines a pipe) is under-provisioned on purpose so replacement churn
shows; ``large`` (4 x 2^10) covers the population.
"""

from repro.bench import SweepPool, format_table, make_cluster, run_stream, scaled_config
from repro.workloads import (
    DATA_CENTER_SERVICES_MIX,
    FixedOpStream,
    MixStream,
    bootstrap,
    single_large_directory,
)

from _util import one_shot, save_table

OPS = 4000
FILES = 512

WORKLOADS = {
    "hotspot_stat": lambda pop: FixedOpStream("stat", pop, seed=17, dir_choice="single"),
    "dcs_mix": lambda pop: MixStream(
        DATA_CENTER_SERVICES_MIX, pop, seed=17, data_latency_us=0.0
    ),
}
ARMS = {
    "off": {},
    "small": dict(switch_cache=True, switch_cache_stages=2, switch_cache_index_bits=4),
    "large": dict(switch_cache=True, switch_cache_stages=4, switch_cache_index_bits=10),
}


def _run_arm(point):
    workload, arm = point
    cluster = make_cluster("SwitchFS", scaled_config(num_servers=8, **ARMS[arm]))
    pop = bootstrap(cluster, single_large_directory(FILES), warm_clients=[0])
    return run_stream(cluster, WORKLOADS[workload](pop), total_ops=OPS,
                      inflight=64, op_label=workload)


def test_switch_cache_design_space(benchmark):
    points = [(w, a) for w in WORKLOADS for a in ARMS]

    def run():
        return dict(zip(points, SweepPool().map(_run_arm, points)))

    results = one_shot(benchmark, run)
    save_table(
        "switch_cache_design_space",
        format_table(
            "Switch design space: dentry cache off / small / large "
            f"({OPS} ops, {FILES} files, one directory)",
            ["workload", "arm", "Kops/s", "mean us", "hit rate", "fills", "evictions"],
            [
                [w, a, round(r.throughput_kops, 1), round(r.mean_latency_us, 2),
                 round(r.switch_cache_hit_rate, 4),
                 r.switch_cache.get("fills", 0), r.switch_cache.get("evictions", 0)]
                for (w, a), r in results.items()
            ],
        ),
    )

    hot = {a: results["hotspot_stat", a] for a in ARMS}
    # A cache that covers the hot set serves most stats from the pipeline
    # and never replaces; the starved one churns and sits in between.
    assert hot["large"].switch_cache_hit_rate >= 0.5
    assert hot["large"].switch_cache["evictions"] == 0
    assert hot["small"].switch_cache["evictions"] > 0
    assert hot["large"].throughput_kops > 2.5 * hot["off"].throughput_kops
    assert hot["large"].mean_latency_us < 0.5 * hot["off"].mean_latency_us
    assert (hot["off"].throughput_kops < hot["small"].throughput_kops
            < hot["large"].throughput_kops)
    # On the mutation-heavy mix the hit rate is bounded by the EVICT
    # traffic, and the cache is close to free: within a few % of off.
    mix = {a: results["dcs_mix", a] for a in ARMS}
    assert 0 < mix["large"].switch_cache_hit_rate < hot["large"].switch_cache_hit_rate
    for arm in ("small", "large"):
        assert abs(mix[arm].throughput_kops / mix["off"].throughput_kops - 1) < 0.05
