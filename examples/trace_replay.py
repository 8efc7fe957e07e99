#!/usr/bin/env python3
"""Replay the CNN-training trace end to end (§6.6).

Run:  python examples/trace_replay.py

Synthesises the AlexNet/ImageNet lifecycle — download every training
file, one epoch of randomised open/read/close, then delete everything —
and replays it against SwitchFS and CFS-KV with data accesses modelled
as fixed-latency datanode reads.
"""

from repro.bench import make_cluster, run_stream
from repro.core import FSConfig
from repro.workloads import CNNTrainingTrace, bootstrap, trace_population

CLASSES = 40
FILES_PER_CLASS = 12
INFLIGHT = 64


def replay(name):
    cluster = make_cluster(name, FSConfig(num_servers=8, cores_per_server=4))
    pop = bootstrap(cluster, trace_population(CLASSES, FILES_PER_CLASS), warm_clients=[0])
    trace = CNNTrainingTrace(pop, epochs=1, seed=3, data_latency_us=120.0)
    total = len(trace)
    result = run_stream(cluster, trace, total_ops=total, inflight=INFLIGHT)
    print(f"  {name:<10} {result.throughput_kops:8.1f} Kops/s end-to-end over "
          f"{total} ops ({result.sim_elapsed_us/1000:.1f} ms simulated)")
    return result.throughput_ops


def main() -> None:
    print(f"CNN training lifecycle: {CLASSES} class dirs x {FILES_PER_CLASS} files, "
          f"download -> epoch -> removal, {INFLIGHT} in flight\n")
    s = replay("SwitchFS")
    c = replay("CFS-KV")
    print(f"\nSwitchFS end-to-end speedup over CFS-KV: {(s/c - 1)*100:.0f}%")
    print("(paper reports +30.1% end-to-end over CFS-KV on real-world traces)")


if __name__ == "__main__":
    main()
