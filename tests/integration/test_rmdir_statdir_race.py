"""An rmdir racing a statdir on the same scattered directory resolves.

The schedule: on 4 servers, client 0 makes ``/d`` and creates and deletes
``/d/x`` (which leaves ``/d`` scattered), then issues ``statdir /d`` at
*t*, and client 1 issues ``rmdir /d`` at *t + gap*.  The statdir's round
blocks reads on ``/d``'s fingerprint group and will want ``/d``'s inode
to apply what it pulled; rmdir must therefore not hold that inode while
it waits for the block.  When it did, every gap up to 6 µs ended with both
ops failing EIO after ten RPC attempts (127.6 ms) and ``/d`` wedged for
every later reader.
"""

import pytest

from repro.core import ENOENT, FSConfig, FSError, SwitchFSCluster
from repro.sim import AllOf

# Well above the race's own latency (tens of µs), far below one RPC
# timeout: an answer that waited out a retry is not prompt.
PROMPT_US = 200.0


def _outcome(sim, gen, delay, results, label):
    if delay:
        yield sim.timeout(delay)
    try:
        yield from gen
        results[label] = "ok"
    except FSError as exc:
        results[label] = exc.code


@pytest.mark.parametrize("gap_us", [g / 2 for g in range(15)])  # 0, 0.5, ..., 7 µs
def test_rmdir_racing_statdir_resolves(gap_us):
    cluster = SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2, seed=2))
    fs0, fs1, fs2 = cluster.client(0), cluster.client(1), cluster.client(2)
    cluster.run_op(fs0.mkdir("/d"))
    cluster.run_op(fs0.create("/d/x"))
    cluster.run_op(fs0.delete("/d/x"))

    sim = cluster.sim
    results = {}
    procs = [
        sim.spawn(_outcome(sim, fs0.statdir("/d"), 0, results, "statdir"), name="statdir"),
        sim.spawn(_outcome(sim, fs1.rmdir("/d"), gap_us, results, "rmdir"), name="rmdir"),
    ]

    def join():
        yield AllOf(sim, procs)

    sim.run_process(sim.spawn(join(), name="join"), until=sim.now + 1e6)
    assert results["rmdir"] == "ok", results
    assert results["statdir"] in ("ok", ENOENT), results

    # A third client finds /d gone, at once, however the race went.
    for op in (fs2.statdir("/d"), fs2.readdir("/d"), fs2.create("/d/y")):
        issued = sim.now
        with pytest.raises(FSError) as err:
            cluster.run_op(op)
        assert err.value.code == ENOENT
        assert sim.now - issued < PROMPT_US

    # Quiescent afterwards: no lock, group block or pending entry is left
    # on any server (settle raises and names it otherwise).
    cluster.settle()
