"""Property: model equivalence holds on lossy/duplicating networks.

Same reference-model comparison as test_model_equivalence, but every
packet rolls loss/duplication/reordering dice.  Retransmission,
at-most-once execution, SEQ-filtered removes, and the watchdogs must make
the fault layer invisible to semantics."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FSConfig, SwitchFSCluster
from repro.net import FaultModel
from repro.sim import make_rng

from .test_model_equivalence import ModelFS, op_strategy, run_cluster_op


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    ops=st.lists(op_strategy, min_size=1, max_size=15),
    net_seed=st.integers(min_value=0, max_value=10_000),
)
def test_model_equivalence_under_faults(ops, net_seed):
    faults = FaultModel(
        make_rng(net_seed, "prop-faults"),
        loss_prob=0.08,
        dup_prob=0.05,
        reorder_prob=0.1,
        reorder_jitter_us=2.0,
    )
    cluster = SwitchFSCluster(
        FSConfig(num_servers=3, cores_per_server=2, seed=2), faults=faults
    )
    fs = cluster.client(0)
    model = ModelFS()
    for op, path in ops:
        expected = getattr(model, op)(path)
        actual = run_cluster_op(cluster, fs, op, path)
        assert actual == expected, (
            f"{op} {path}: cluster={actual!r} model={expected!r} "
            f"(net_seed={net_seed})"
        )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    ops=st.lists(op_strategy, min_size=5, max_size=12),
    crash_at=st.integers(min_value=1, max_value=4),
)
def test_model_equivalence_across_full_crash(ops, crash_at):
    """Crash-and-recover every server mid-sequence; acked operations must
    survive and the remainder of the sequence must still match the model."""
    cluster = SwitchFSCluster(
        FSConfig(num_servers=3, cores_per_server=2, seed=3, proactive_enabled=False)
    )
    fs = cluster.client(0)
    model = ModelFS()
    for i, (op, path) in enumerate(ops):
        if i == crash_at:
            for idx in range(3):
                cluster.crash_server(idx)
            for idx in range(3):
                cluster.recover_server(idx)
        expected = getattr(model, op)(path)
        actual = run_cluster_op(cluster, fs, op, path)
        assert actual == expected, f"{op} {path} after crash@{crash_at}"
