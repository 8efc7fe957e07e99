"""Determinism regression: same seed ⇒ bit-identical results.

The kernel fast paths (DESIGN.md §9) remove allocations and heap traffic
but must never perturb event ordering: two runs of the same seeded
workload have to produce byte-identical latency sample streams, phase
totals, and virtual-time measurements.  These tests run small versions
of the figure benchmarks twice and diff every ``RunResult`` field.
"""

from repro.bench import make_cluster, run_stream, scaled_config
from repro.core.cluster import SwitchFSCluster
from repro.net import FaultModel
from repro.sim import PhaseStats, make_rng
from repro.workloads import (
    FixedOpStream,
    MixStream,
    THUMBNAIL_MIX,
    bootstrap,
    multiple_directories,
    single_large_directory,
)


def _fingerprint(result):
    """Every observable field of a RunResult, in a comparable form.

    ``latency.samples`` preserves recording order, so equality here means
    the interleaving of op completions matched event-for-event, not just
    the aggregate statistics.
    """
    return {
        "ops_completed": result.ops_completed,
        "sim_elapsed_us": result.sim_elapsed_us,
        "inflight": result.inflight,
        "samples": {op: result.latency.samples(op) for op in sorted(result.latency._samples)},
        "phase_totals": {p: result.phases.total(p) for p in PhaseStats.PHASES},
    }


def _hotspot_point(system: str):
    """Small fig-11-style point: contended create on one shared directory."""
    cluster = make_cluster(system, scaled_config(num_servers=4, seed=17))
    pop = bootstrap(cluster, single_large_directory(400), warm_clients=[0])
    stream = FixedOpStream("create", pop, seed=17, dir_choice="single")
    return run_stream(cluster, stream, total_ops=250, inflight=16)


def _mix_point():
    """Small workload-mix point exercising the cross-op scheduler paths."""
    cluster = make_cluster("SwitchFS", scaled_config(num_servers=4, seed=23))
    pop = bootstrap(cluster, multiple_directories(16, 8), warm_clients=[0])
    stream = MixStream(THUMBNAIL_MIX, pop, seed=23)
    return run_stream(cluster, stream, total_ops=250, inflight=8)


def _faulty_point():
    """Hotspot point over a lossy, duplicating fabric.

    Exercises the datapath fast paths end to end — inline serve dispatch,
    scatter-gather multicast, packet pooling, retransmission, and the
    reply cache — under fault injection, where a single perturbed event
    ordering would cascade into different retransmit decisions.
    """
    cluster = SwitchFSCluster(
        scaled_config(num_servers=4, seed=31),
        faults=FaultModel(make_rng(31, "net"), loss_prob=0.05, dup_prob=0.05),
    )
    pop = bootstrap(cluster, single_large_directory(200), warm_clients=[0])
    stream = FixedOpStream("create", pop, seed=31, dir_choice="single")
    return run_stream(cluster, stream, total_ops=200, inflight=8)


class TestRunDeterminism:
    def test_switchfs_hotspot_identical_across_runs(self):
        assert _fingerprint(_hotspot_point("SwitchFS")) == _fingerprint(
            _hotspot_point("SwitchFS")
        )

    def test_baseline_hotspot_identical_across_runs(self):
        assert _fingerprint(_hotspot_point("InfiniFS")) == _fingerprint(
            _hotspot_point("InfiniFS")
        )

    def test_mix_stream_identical_across_runs(self):
        assert _fingerprint(_mix_point()) == _fingerprint(_mix_point())

    def test_inline_dispatch_identical_under_faults(self):
        """The inlined RPC dispatch must stay bit-identical per seed even
        when loss/duplication drives the retransmission machinery."""
        assert _fingerprint(_faulty_point()) == _fingerprint(_faulty_point())

    def test_different_load_actually_changes_the_run(self):
        """Guard against the fingerprint being insensitive (e.g. all-empty)."""
        base = _fingerprint(_hotspot_point("SwitchFS"))
        cluster = make_cluster("SwitchFS", scaled_config(num_servers=4, seed=17))
        pop = bootstrap(cluster, single_large_directory(400), warm_clients=[0])
        stream = FixedOpStream("create", pop, seed=17, dir_choice="single")
        other = _fingerprint(run_stream(cluster, stream, total_ops=250, inflight=4))
        assert base["samples"]["all"]  # non-trivial sample stream
        assert base != other


# What one interpreter launch draws from MixStream: each thunk is run
# against a stand-in LibFS that only records the calls it receives.
_DRAW_MIX_OPS = """
from repro.workloads import DATA_CENTER_SERVICES_MIX, MixStream, multiple_directories

class Recorder:
    def __init__(self):
        self.calls = []
        self.sim = self
    def timeout(self, delay):
        return None
    def __getattr__(self, op):
        def call(*paths):
            self.calls.append((op,) + paths)
            return iter(())
        return call

fs = Recorder()
stream = MixStream(DATA_CENTER_SERVICES_MIX, multiple_directories(16, 8), seed=17)
for _ in range(500):
    thunk = stream.take()
    for _ in thunk(fs):
        pass
    fs.calls.append(thunk.op_name)
print(fs.calls)
"""


def test_mix_stream_is_independent_of_pythonhashseed():
    """``hash(str)`` is salted per interpreter launch; a stream that used
    it drew other rename destinations in every process."""
    import os
    import subprocess
    import sys

    def draw(hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", _DRAW_MIX_OPS], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        return done.stdout

    first = draw("1")
    assert "rename" in first and "mx-rndst" in first
    assert first == draw("2")
