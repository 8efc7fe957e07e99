"""Unit tests for the benchmark harness and reporters."""

import pytest

from repro.bench import (
    RunResult,
    Series,
    find_peak_throughput,
    format_table,
    make_cluster,
    run_stream,
    scaled_config,
)
from repro.core import FSConfig, SwitchFSCluster
from repro.sim import LatencyRecorder
from repro.workloads import FixedOpStream, bootstrap, multiple_directories


def small_run(inflight=8, total=60, warmup=0):
    """One run_stream call, after a separate *warmup*-op call if asked."""
    cluster = SwitchFSCluster(FSConfig(num_servers=2, cores_per_server=2, seed=33))
    pop = bootstrap(cluster, multiple_directories(4, 3), warm_clients=[0])
    stream = FixedOpStream("stat", pop, seed=33)
    if warmup:
        run_stream(cluster, stream, total_ops=warmup, inflight=inflight)
    return run_stream(cluster, stream, total_ops=total, inflight=inflight)


class TestRunStream:
    def test_counts_and_throughput(self):
        result = small_run()
        assert result.ops_completed == 60
        assert result.throughput_kops > 0
        assert result.mean_latency_us > 0
        assert result.p99_latency_us() >= result.latency.p(50)

    def test_warmup_excluded(self):
        # A warm-up call is not in the next call's result.
        result = small_run(total=40, warmup=20)
        assert result.ops_completed == 40
        assert result.latency.count() == 40
        assert result.latency.count("stat") == 40

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            small_run(total=0)


class TestFindPeak:
    def test_returns_best_level(self):
        calls = []

        def make_run(inflight):
            calls.append(inflight)
            latency = LatencyRecorder()
            latency.record(1.0)
            tput = {8: 100, 16: 190, 32: 200, 64: 201}[inflight]
            return RunResult(
                ops_completed=tput, sim_elapsed_us=1e6, wall_seconds=0.0,
                latency=latency, inflight=inflight,
            )

        best = find_peak_throughput(make_run, inflight_levels=(8, 16, 32, 64))
        # 32 -> 64 improves by <2%: stops and keeps the higher of the two.
        assert best.ops_completed == 201
        assert calls == [8, 16, 32, 64]


class TestSweep:
    def test_make_cluster_all_systems(self):
        for system in ("SwitchFS", "InfiniFS", "CFS-KV", "IndexFS", "Ceph"):
            cluster = make_cluster(system, scaled_config(num_servers=2))
            assert cluster.client(0) is not None

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            make_cluster("ZFS", scaled_config())


class TestReporters:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [[1, 22.5], ["xx", 3]])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert len({len(l) for l in lines[1:]}) <= 2  # consistent widths

    def test_series_table(self):
        s = Series("t", "x", "y")
        s.add("l1", 1, 10)
        s.add("l2", 1, 20)
        s.add("l1", 2, 11)
        headers, rows = s.as_table()
        assert headers == ["x", "l1", "l2"]
        assert rows == [[1, 10, 20], [2, 11, "-"]]
