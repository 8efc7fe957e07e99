#!/usr/bin/env python3
"""Burst tolerance (§6.3): throughput vs. burst size.

Run:  python examples/burst_tolerance.py

Applications emit bursts of spatially-related operations (a compute job
finishing, EDA temp files).  Synchronous systems collapse as the burst
size grows — all in-flight requests pile onto one directory's lock.
SwitchFS buffers the burst in change-logs and stays flat.
"""

from repro.bench import make_cluster, run_stream
from repro.core import FSConfig
from repro.workloads import BurstStream, bootstrap, multiple_directories

N_OPS = 4_000
INFLIGHT = 32


def measure(system, burst_size):
    cluster = make_cluster(system, FSConfig(num_servers=8, cores_per_server=4))
    pop = bootstrap(cluster, multiple_directories(64, 4), warm_clients=[0])
    stream = BurstStream(pop, burst_size=burst_size, seed=11)
    result = run_stream(cluster, stream, total_ops=N_OPS, inflight=INFLIGHT)
    return result.throughput_kops


def main() -> None:
    print(f"create bursts over 64 directories, {INFLIGHT} in flight\n")
    print(f"{'burst size':>10}  {'SwitchFS':>12}  {'InfiniFS':>12}")
    base_s = base_i = None
    for burst in (10, 50, 200, 1000):
        s = measure("SwitchFS", burst)
        i = measure("InfiniFS", burst)
        base_s, base_i = base_s or s, base_i or i
        print(f"{burst:>10}  {s:>9.1f} K  {i:>9.1f} K"
              f"   (vs burst=10: SwitchFS {s/base_s*100:.0f}%, InfiniFS {i/base_i*100:.0f}%)")
    print("\nThe paper reports InfiniFS dropping ~72% from burst 10 to 1000 "
          "while SwitchFS stays stable (Figure 13).")


if __name__ == "__main__":
    main()
