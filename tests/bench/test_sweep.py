"""Tests for the process-pool sweep runner (repro.bench.sweep)."""

import pytest

from repro.bench import SweepPool, run_stream
from repro.core import FSConfig, SwitchFSCluster
from repro.workloads import FixedOpStream, bootstrap, multiple_directories


def square(x):
    return x * x


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
        {op: result.latency.samples(op) for op in sorted(result.latency.ops())},
        result.phases.as_dict(),
    )


class TestSweepPool:
    def test_serial_map_preserves_order(self):
        pool = SweepPool(serial=True)
        assert pool.map(square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        serial = SweepPool(serial=True).map(square, list(range(8)))
        parallel = SweepPool(max_workers=2, serial=False).map(square, list(range(8)))
        assert parallel == serial

    def test_single_point_runs_in_process(self):
        pool = SweepPool(max_workers=4, serial=False)
        assert pool.map(square, [5]) == [25]

    def test_env_escape_hatch_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_SERIAL", "1")
        assert SweepPool().serial

    def test_single_core_defaults_to_serial(self):
        assert SweepPool(max_workers=1).serial

    def test_worker_crash_propagates_from_pool(self):
        """A crash in a pool worker surfaces as the original exception,
        not a hang or a silently truncated result list."""
        with pytest.raises(ValueError, match="worker exploded on 2"):
            SweepPool(max_workers=2, serial=False).map(boom, [0, 1, 2, 3])

    def test_worker_crash_propagates_serially(self):
        with pytest.raises(ValueError, match="worker exploded on 2"):
            SweepPool(serial=True).map(boom, [0, 1, 2, 3])

    def test_benchmark_point_identical_serial_vs_pool(self):
        """A real simulation point returns bit-identical results from a
        worker process and from the in-process escape hatch."""
        (serial_result,) = SweepPool(serial=True).map(tiny_run, [4])
        pooled = SweepPool(max_workers=2, serial=False).map(tiny_run, [4, 8])
        assert run_fingerprint(pooled[0]) == run_fingerprint(serial_result)
