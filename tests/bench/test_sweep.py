"""Tests for the process-pool sweep runner (repro.bench.sweep)."""

import os

import pytest

from repro.bench import run_stream
from repro.bench.sweep import sweep
from repro.core import FSConfig, SwitchFSCluster
from repro.sim import PhaseStats
from repro.workloads import FixedOpStream, bootstrap, multiple_directories


def square(x):
    return x * x


def worker_pid(_):
    return os.getpid()


def boom(x):
    """Module-level (picklable) worker that crashes on one input."""
    if x == 2:
        raise ValueError(f"worker exploded on {x}")
    return x


def tiny_run(inflight):
    """Module-level (picklable) benchmark point: one small stat run."""
    cluster = SwitchFSCluster(FSConfig(num_servers=2, cores_per_server=2, seed=71))
    pop = bootstrap(cluster, multiple_directories(4, 4), warm_clients=[0])
    stream = FixedOpStream("stat", pop, seed=71)
    return run_stream(cluster, stream, total_ops=80, inflight=inflight)


def run_fingerprint(result):
    """Byte-comparable projection of a RunResult."""
    return (
        result.ops_completed,
        result.sim_elapsed_us,
        result.inflight,
        {op: result.latency.samples(op) for op in sorted(result.latency._samples)},
        [result.phases.total(p) for p in PhaseStats.PHASES],
    )


class TestSweepPool:
    def test_serial_map_preserves_order(self):
        assert sweep(square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        assert sweep(square, range(8)) == [square(x) for x in range(8)]
        if (os.cpu_count() or 1) > 1:  # several points, several cores: a pool
            assert os.getpid() not in sweep(worker_pid, range(4))

    def test_single_point_runs_in_process(self):
        assert sweep(worker_pid, [5]) == [os.getpid()]

    def test_single_core_defaults_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert sweep(worker_pid, [0, 1, 2]) == [os.getpid()] * 3

    def test_worker_crash_propagates_from_pool(self):
        """A crash in a pool worker surfaces as the original exception,
        not a hang or a silently truncated result list."""
        with pytest.raises(ValueError, match="worker exploded on 2"):
            sweep(boom, [0, 1, 2, 3])

    def test_worker_crash_propagates_serially(self):
        with pytest.raises(ValueError, match="worker exploded on 2"):
            sweep(boom, [2])

    def test_benchmark_point_identical_serial_vs_pool(self):
        """A real simulation point returns bit-identical results from a
        worker process and from an in-process run."""
        (serial_result,) = sweep(tiny_run, [4])
        pooled = sweep(tiny_run, [4, 8])
        assert run_fingerprint(pooled[0]) == run_fingerprint(serial_result)
