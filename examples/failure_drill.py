#!/usr/bin/env python3
"""Fault drill (§4.4, §6.7): lossy network, server crash, switch failure.

Run:  python examples/failure_drill.py

Demonstrates the three fault-tolerance mechanisms:
  1. UDP loss/duplication/reordering absorbed by retransmission + the
     switch's SEQ-filtered idempotent operations;
  2. server crash + WAL-replay recovery (inodes and change-logs rebuilt);
  3. switch failure: stale set reinitialised empty, every server flushes
     its change-logs, operations blocked until consistent.
"""

from repro.core import FSConfig, SwitchFSCluster
from repro.net import FaultModel
from repro.sim import make_rng


def main() -> None:
    print("== 1. operating over a lossy network ==")
    faults = FaultModel(
        make_rng(42, "net"), loss_prob=0.1, dup_prob=0.05,
        reorder_prob=0.1, reorder_jitter_us=3.0,
    )
    cluster = SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2), faults=faults)
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/data"))
    for i in range(25):
        cluster.run_op(fs.create(f"/data/f{i}"))
    listing = cluster.run_op(fs.readdir("/data"))
    print(f"  25 creates under 10% loss / 5% dup / 10% reorder -> "
          f"readdir sees {len(listing['entries'])} entries (correct)")
    print(f"  client retransmits: {fs.node.retransmits}, "
          f"network drops: {cluster.net.packets_dropped}")

    print("\n== 2. server crash + WAL recovery ==")
    cluster = SwitchFSCluster(
        FSConfig(num_servers=4, cores_per_server=2, proactive_enabled=False)
    )
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/data"))
    for i in range(60):
        cluster.run_op(fs.create(f"/data/f{i}"))
    pending = cluster.total_pending_entries()
    cluster.crash_server(1)
    duration = cluster.recover_server(1)
    print(f"  crashed server-1 with {pending} change-log entries pending cluster-wide")
    print(f"  WAL replay recovered it in {duration:.1f} us of virtual time")
    listing = cluster.run_op(fs.readdir("/data"))
    print(f"  readdir after recovery: {len(listing['entries'])} entries (correct)")

    print("\n== 3. switch failure: flush-based recovery ==")
    cluster = SwitchFSCluster(
        FSConfig(num_servers=4, cores_per_server=2, proactive_enabled=False)
    )
    fs = cluster.client(0)
    cluster.run_op(fs.mkdir("/data"))
    for i in range(40):
        cluster.run_op(fs.create(f"/data/f{i}"))
    print(f"  {cluster.total_pending_entries()} change-log entries scattered, "
          f"switch occupancy {cluster.switch_stats().occupancy}")
    duration = cluster.fail_switch()
    print(f"  switch failed; all servers flushed change-logs in {duration:.1f} us")
    print(f"  switch occupancy now {cluster.switch_stats().occupancy}, "
          f"pending entries {cluster.total_pending_entries()}")
    info = cluster.run_op(fs.statdir("/data"))
    print(f"  statdir after recovery: entry_count={info['entry_count']} (correct)")


if __name__ == "__main__":
    main()
