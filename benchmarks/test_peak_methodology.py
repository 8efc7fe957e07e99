"""Methodology check — the paper's peak-throughput search (§6.2.1).

"To obtain the peak throughput, we gradually increase the number of
concurrent requests issued by clients until the throughput no longer
increases."  This bench runs that search for SwitchFS on the hotspot
workload and verifies the fixed in-flight level the other benchmarks use
(64) sits at or near the knee.
"""

from repro.bench import find_peak_throughput, format_table, run_stream, scaled_config
from repro.bench.sweep import sweep
from repro.core import SwitchFSCluster
from repro.workloads import FixedOpStream, bootstrap, single_large_directory

from _util import one_shot, save_table

OPS = 2500
LEVELS = (8, 16, 32, 64, 128)


def _run(inflight: int):
    # Module-level so the sweep pool can pickle it into worker processes.
    cluster = SwitchFSCluster(scaled_config(num_servers=8, cores_per_server=4))
    pop = bootstrap(cluster, single_large_directory(OPS + 100), warm_clients=[0])
    stream = FixedOpStream("create", pop, seed=97, dir_choice="single")
    return run_stream(cluster, stream, total_ops=OPS, inflight=inflight)


def test_peak_search(benchmark):
    def run():
        # The in-flight ladder is embarrassingly parallel (each level builds
        # a fresh cluster), so probe every level through the sweep pool and
        # apply the paper's knee-selection scan to the ordered results —
        # identical to the serial early-stopping search.
        probed = sweep(_run, list(LEVELS))
        results = dict(zip(LEVELS, probed))
        best = find_peak_throughput(results.__getitem__, inflight_levels=LEVELS)
        return best, results

    best, results = one_shot(benchmark, run)
    rows = [
        [inflight, round(r.throughput_kops, 1), round(r.mean_latency_us, 1)]
        for inflight, r in sorted(results.items())
    ]
    rows.append(["peak ->", round(best.throughput_kops, 1), best.inflight])
    save_table(
        "peak_methodology",
        format_table(
            "Peak-throughput search: SwitchFS create, one shared dir, 8 servers",
            ["in flight", "Kops/s", "avg us / chosen"], rows,
        ),
    )
    # Throughput grows with offered load, then saturates.
    assert results[32].throughput_ops > results[8].throughput_ops
    # The knee is reached within the probed range (the search stopped).
    assert best.inflight >= 32
    # Latency keeps rising past the knee (closed-loop queueing).
    probed = sorted(results)
    assert results[probed[-1]].mean_latency_us > results[probed[0]].mean_latency_us