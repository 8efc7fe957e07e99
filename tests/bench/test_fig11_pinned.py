"""Pinned fig-11 values: a small SwitchFS create point, bit for bit.

KV and WAL operations consume zero virtual time (only ``_cpu`` charges
advance the clock), so storage-engine and bookkeeping changes are pure
wall-clock optimisations and must leave these values alone.  A change to
the protocol's schedule moves them.  The current values pin the push
rule of §4.3 as implemented (at most one queued push per change-log) and
the CPU rule of DESIGN §5: a handler holds a core once for each run of
CPU between two points where it can block (a lock wait, an RPC, a
round), and a recast apply of n entries holds at most one core each on
min(n, cores) of them.  EXPERIMENTS.md ("One hold per run of CPU")
records the values before and after, with the cause.  Any other drift
means a change leaked into simulated behaviour.
"""

import hashlib
import json

import pytest

from repro.bench import make_cluster, run_stream, scaled_config
from repro.workloads import FixedOpStream, bootstrap, single_large_directory

# Captured once a create held a core twice (the path check, then the
# rest once its locks were granted); see EXPERIMENTS.md.
PINNED = {
    "ops_completed": 250,
    "sim_elapsed_us": 282.40000000000003,
    "throughput_kops": 885.269121813031,
    "mean_latency_us": 17.293799999999973,
    "n_samples": 250,
    "samples_sha256": "75098995519e4920f45534cf24b987805fedd853aa12723d866a936122b46ee1",
}


def test_fig11_small_point_bit_identical_to_seed_engine():
    cluster = make_cluster("SwitchFS", scaled_config(num_servers=4, seed=17))
    pop = bootstrap(cluster, single_large_directory(400), warm_clients=[0])
    stream = FixedOpStream("create", pop, seed=17, dir_choice="single")
    result = run_stream(cluster, stream, total_ops=250, inflight=16)
    samples = result.latency.samples("all")
    assert result.ops_completed == PINNED["ops_completed"]
    assert result.sim_elapsed_us == PINNED["sim_elapsed_us"]
    assert result.throughput_kops == PINNED["throughput_kops"]
    assert result.mean_latency_us == PINNED["mean_latency_us"]
    assert len(samples) == PINNED["n_samples"]
    digest = hashlib.sha256(json.dumps(samples).encode()).hexdigest()
    assert digest == PINNED["samples_sha256"]


# The baselines' virtual time, one small closed-loop point per system and
# op: (sim_elapsed_us, mean latency, sha256 of the sample list), captured
# once the baselines became MetadataServers with async_updates=False over
# their placements, and Ceph's create and rmdir re-captured with one hold
# per run of CPU (its stack multiplier makes its cores the contended
# resource, so the merged holds queue differently).  rmdir is a mkdir ->
# rmdir pair, as in the figure benches.
PINNED_BASELINES = {
    ("InfiniFS", "create"): (865.6999999999999, 108.89333333333333, "87d45ae1072271c3c751dc6e460531be3240ce8c3d52a0c5d4396074f0517b98"),
    ("InfiniFS", "rmdir"): (2306.2499999999977, 293.90249999999935, "3eb25b4ca91fd6cd8a46f5992973da7a82ee325d585738263c0dc3906a858771"),
    ("InfiniFS", "statdir"): (65.4, 8.453333333333333, "506378c5754f7df5bb8c1c23141f710db1df8837e0119bc27e24bac88201e433"),
    ("CFS-KV", "create"): (1149.049999999998, 144.20749999999978, "97af9cc61ad62a0d60f16383b39e5d30a0ec7e38ca154c25015256ab777c3e62"),
    ("CFS-KV", "rmdir"): (2257.4499999999985, 286.53249999999946, "3a795ac6ade36eb8f08924f27338f7013b08aecdcb57b5b1218f56f6a74d721f"),
    ("CFS-KV", "statdir"): (65.4, 8.453333333333333, "506378c5754f7df5bb8c1c23141f710db1df8837e0119bc27e24bac88201e433"),
    ("IndexFS", "create"): (1787.7, 225.29333333333335, "49776425dab6def2cadab2c882023c38ea2d30631a2ace3bd82ae1849fbe99b5"),
    ("IndexFS", "rmdir"): (7369.700000000024, 939.8591666666701, "95295126f78e68fa5cbfaab11dcc8285956cc2cdd2078549382e090bf3ad3583"),
    ("IndexFS", "statdir"): (573.6999999999999, 73.96, "6b20f3598143422cd3ac62d23e5d0e4be79836301e6fd4e2dad3850251644523"),
    ("Ceph", "create"): (24231.7, 3111.2549999999987, "cb55ca58d3098a21caa570d22144da34a19677ef92afdda9d6beb769c9b060fe"),
    ("Ceph", "rmdir"): (47675.3, 6131.453333333333, "ffb1d775d6ee15df900a6611486bd0c2d4bf8f17e1db1c2d20973338792bfc72"),
    ("Ceph", "statdir"): (17283.7, 2227.6933333333336, "74c972200ff0b8f64c14ddfa8675707c153c4c38bda52f1427c551abba7fd552"),
}


def small_point(system, op, **config):
    cluster = make_cluster(system, scaled_config(num_servers=4, seed=17, **config))
    pop = bootstrap(cluster, single_large_directory(100), warm_clients=[0])
    stream = FixedOpStream(op, pop, seed=17, dir_choice="single")
    result = run_stream(cluster, stream, total_ops=60, inflight=8)
    samples = result.latency.samples("all")
    digest = hashlib.sha256(json.dumps(samples).encode()).hexdigest()
    return result.sim_elapsed_us, result.mean_latency_us, digest


@pytest.mark.parametrize("system,op", sorted(PINNED_BASELINES))
def test_baseline_small_point_bit_identical(system, op):
    assert small_point(system, op) == PINNED_BASELINES[system, op]


def test_switchfs_sync_create_point_is_cfskv_point():
    """SwitchFS with async_updates=False (Fig 15's Baseline) is CFS-KV's
    scheme over CFS-KV's placement: the same point, bit for bit."""
    point = small_point("SwitchFS", "create", async_updates=False, recast=False)
    assert point == PINNED_BASELINES["CFS-KV", "create"]
