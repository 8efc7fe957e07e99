#!/usr/bin/env python3
"""Hotspot demo: a burst of creates into one shared directory.

Run:  python examples/skewed_hotspot.py

This is the paper's motivating scenario (§2.3): every create must update
the same parent directory.  Synchronous systems serialise on that inode;
SwitchFS logs the updates locally on each file's owner and lets the
switch track the directory's scattered state, so throughput scales.
"""

import time

from repro.bench import make_cluster, run_stream
from repro.core import FSConfig
from repro.workloads import FixedOpStream, bootstrap, single_large_directory

N_OPS = 6_000
INFLIGHT = 32


def measure(name):
    cluster = make_cluster(name, FSConfig(num_servers=8, cores_per_server=4))
    pop = bootstrap(cluster, single_large_directory(64), warm_clients=[0])
    stream = FixedOpStream("create", pop, seed=7, dir_choice="single")
    wall = time.time()
    result = run_stream(cluster, stream, total_ops=N_OPS, inflight=INFLIGHT)
    print(
        f"  {name:<10} {result.throughput_kops:8.1f} Kops/s   "
        f"avg latency {result.mean_latency_us:7.1f} us   "
        f"(simulated {result.sim_elapsed_us/1000:.1f} ms in {time.time()-wall:.1f}s wall)"
    )
    return result


def main() -> None:
    print(f"create x {N_OPS} into ONE shared directory, 8 servers x 4 cores, "
          f"{INFLIGHT} in flight:\n")
    switchfs = measure("SwitchFS")
    infinifs = measure("InfiniFS")
    cfskv = measure("CFS-KV")
    print(f"\nSwitchFS speedup: {switchfs.throughput_ops/infinifs.throughput_ops:.1f}x "
          f"over InfiniFS, {switchfs.throughput_ops/cfskv.throughput_ops:.1f}x over CFS-KV")
    print("(paper reports up to 13.34x over InfiniFS on skewed workloads)")


if __name__ == "__main__":
    main()
