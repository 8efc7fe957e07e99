"""LibFS charges its CPU once for each run between two sends (DESIGN.md §5).

A cache hit yields nothing and adds ``cache_lookup_us`` to what the
attempt owes; the one timeout before each send pays that plus
``client_cpu_us``.  So a warm op yields one client timeout per send, a
file rename two (its source probe's ``lookup_dir`` and its transaction),
and a cold stat one per send.  The total charge is what it was with one
timeout per cost constant, so each op, alone on an idle cluster, takes
the latency it took then: the numbers below were measured with one
timeout per cost constant, and hold to 1e-9 µs (the sum rounds
differently).
"""

import sys

import pytest

from repro.core import FSConfig, SwitchFSCluster, client


def _count_client_timeouts(cluster):
    """Count, in ``cluster.client_timeouts``, the timeouts LibFS code asks
    the simulator for (the servers' share the same simulator)."""
    sim = cluster.sim
    timeout = sim.timeout
    cluster.client_timeouts = 0

    def counting_timeout(delay, value=None):
        if sys._getframe(1).f_code.co_filename == client.__file__:
            cluster.client_timeouts += 1
        return timeout(delay, value)

    sim.timeout = counting_timeout


def _count_sends(fs):
    """Count, in ``fs.sends``, the requests client *fs* sends."""
    call = fs.node.call
    fs.sends = 0

    def counting_call(*args, **kwargs):
        fs.sends += 1
        return call(*args, **kwargs)

    fs.node.call = counting_call
    return fs


def _measure(cluster, fs, op):
    """Run *op* alone on the idle cluster: (client timeouts, sends, latency)."""
    cluster.settle()
    timeouts, sends = cluster.client_timeouts, fs.sends
    start = []

    def timed():
        start.append(cluster.sim.now)
        yield from op
        return cluster.sim.now - start[0]

    latency = cluster.run_op(timed())
    return cluster.client_timeouts - timeouts, fs.sends - sends, latency


@pytest.fixture(scope="module")
def warm():
    cluster = SwitchFSCluster(FSConfig(num_servers=4, seed=17))
    _count_client_timeouts(cluster)
    fs = _count_sends(cluster.client(0))
    for path in ("/d", "/e", "/d/sub"):
        cluster.run_op(fs.mkdir(path))
    for path in ("/d/f", "/d/g", "/d/sub/x"):
        cluster.run_op(fs.create(path))
    return cluster, fs


# (op, args, client timeouts, sends, latency in µs), run in this order on
# one warm client.
WARM_OPS = [
    ("create", ("/d/h",), 1, 1, 15.7),
    ("stat", ("/d/f",), 1, 1, 7.7),
    ("open", ("/d/f",), 1, 1, 7.7),
    ("close", ("/d/f",), 1, 1, 5.7),
    ("statdir", ("/d",), 1, 1, 9.7),
    ("readdir", ("/d",), 1, 1, 9.9),
    ("mkdir", ("/d/m",), 1, 1, 15.7),
    ("rmdir", ("/d/m",), 1, 1, 22.9),
    # The source probe's lookup, then the transaction's own four sends.
    ("rename", ("/d/g", "/e/g"), 2, 5, 31.8),
]


def test_a_warm_op_yields_one_client_timeout_per_send(warm):
    cluster, fs = warm
    for method, args, timeouts, sends, latency in WARM_OPS:
        got = _measure(cluster, fs, getattr(fs, method)(*args))
        assert got[:2] == (timeouts, sends), (method, got)
        assert got[2] == pytest.approx(latency, abs=1e-9), (method, got)


def test_a_cold_stat_yields_one_client_timeout_per_send(warm):
    cluster, _ = warm
    cold = _count_sends(cluster.client(1))
    # Two lookups (/d, /d/sub), then the stat.
    timeouts, sends, latency = _measure(cluster, cold, cold.stat("/d/sub/x"))
    assert (timeouts, sends) == (3, 3)
    assert latency == pytest.approx(18.9, abs=1e-9)
    # Now warm: the one send, after the one timeout.
    timeouts, sends, latency = _measure(cluster, cold, cold.stat("/d/sub/x"))
    assert (timeouts, sends) == (1, 1)
    assert latency == pytest.approx(7.7, abs=1e-9)
