#!/usr/bin/env python3
"""Scaling study: create throughput vs. cluster size, charted in-terminal.

Run:  python examples/scaling_study.py

Sweeps server counts for SwitchFS and InfiniFS on the single-hot-directory
workload (the paper's Figure 11(a) create panel) and renders the result
as a unicode bar chart — no plotting libraries required.
"""

from repro.bench import Series, ascii_chart, make_cluster, run_stream
from repro.core import FSConfig
from repro.workloads import FixedOpStream, bootstrap, single_large_directory

OPS = 4000
SERVERS = (2, 4, 8, 16)


def point(system, servers):
    cluster = make_cluster(system, FSConfig(num_servers=servers, cores_per_server=4))
    pop = bootstrap(cluster, single_large_directory(OPS + 100), warm_clients=[0])
    stream = FixedOpStream("create", pop, seed=5, dir_choice="single")
    return run_stream(cluster, stream, total_ops=OPS, inflight=64).throughput_kops


def main() -> None:
    series = Series("create throughput, one shared directory", "#servers", "Kops/s")
    for n in SERVERS:
        for system in ("SwitchFS", "InfiniFS"):
            series.add(system, n, round(point(system, n), 1))
            print(f"  {system} @ {n} servers done")
    print()
    print(ascii_chart(series, width=44))
    s16 = series.lines["SwitchFS"][16]
    i16 = series.lines["InfiniFS"][16]
    print(f"\nAt 16 servers SwitchFS sustains {s16/i16:.1f}x InfiniFS "
          f"(paper: up to 13.34x on skewed workloads).")


if __name__ == "__main__":
    main()
