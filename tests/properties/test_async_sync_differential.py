"""Differential: SwitchFS against the same servers updating parents synchronously.

One schedule runs three times: on SwitchFS (asynchronous parent updates,
recast), on SwitchFS with a two-entry stale set that overflows into the
synchronous fallback, and with ``async_updates=False, recast=False``,
where every parent update lands before the reply.  Hypothesis varies the
number of clients, the op mix, the seed and the network's ``FaultModel``.

Each client works only on names of its own, so the ops on one name are
sequential and, at any read, every name that no op was in flight on has
one right answer (§4.4: a directory read observes every update completed
before it was issued).  Every ``readdir`` must list exactly the names of
that kind that are present; every ``statdir`` must count at least those
and at most those plus the in-flight ones.  After ``settle()`` both
clusters must hold the same namespace with the same ``entry_count``s.
"""

import itertools
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FSConfig, FSError, SwitchFSCluster
from repro.net import FaultModel
from repro.sim import AllOf

OPS = ("create", "delete", "stat", "statdir", "readdir")
NAMES_PER_CLIENT = 6


class History:
    """Per name: the state its last completed op left (True present, False
    absent, None unknown), and whether an op on it is in flight.  The
    global counter orders issue and completion events exactly as the
    simulation ran them, same-instant ones included."""

    def __init__(self):
        self.clock = itertools.count()
        self.state = {}  # (d, name) -> True / False / None
        self.changed_at = {}  # (d, name) -> clock of the last completion
        self.inflight = set()
        self.violations = []

    def settled(self, d, since):
        """The names of directory *d* whose state nothing could change
        after clock *since*, each with its state (``None``: unknown)."""
        return {
            name: state for (dd, name), state in self.state.items()
            if dd == d and (dd, name) not in self.inflight
            and self.changed_at[(dd, name)] < since and state is not None
        }

    def check_read(self, d, issued, op, value, who):
        known = self.settled(d, issued)
        present = {name for name, state in known.items() if state}
        if op == "readdir":
            listed = set(value["entries"])
            wrong = {name for name in known if (name in listed) != known[name]}
            if wrong:
                self.violations.append(f"{who} readdir /d{d}: listed {sorted(listed)}, "
                                       f"expected {sorted(present)} (wrong: {sorted(wrong)})")
        else:
            touched = {key for key in itertools.chain(self.state, self.inflight) if key[0] == d}
            maybe = len(touched) - len(known)
            count = value["entry_count"]
            if not len(present) <= count <= len(present) + maybe:
                self.violations.append(f"{who} statdir /d{d}: entry_count {count}, "
                                       f"{len(present)} present and {maybe} undetermined")


def _client(fs, i, sim, rng, mix, dirs, ops, history):
    for _ in range(ops):
        d = rng.randrange(dirs)
        name = f"c{i}_{rng.randrange(NAMES_PER_CLIENT)}"
        op = rng.choices(OPS, weights=mix)[0]
        key = (d, name)
        issued = next(history.clock)
        if op in ("create", "delete"):
            history.inflight.add(key)
        try:
            if op in ("statdir", "readdir"):
                value = yield from getattr(fs, op)(f"/d{d}")
                history.check_read(d, issued, op, value, f"client {i} at {sim.now:.2f} us")
            else:
                yield from getattr(fs, op)(f"/d{d}/{name}")
                outcome = op != "delete"
        except FSError as err:
            # EEXIST / ENOENT tell the name's state; anything else leaves it unknown.
            outcome = {"EEXIST": True, "ENOENT": False}.get(err.code)
        if op in ("create", "delete"):
            history.inflight.discard(key)
            history.state[key] = outcome
            history.changed_at[key] = next(history.clock)
        yield sim.timeout(rng.uniform(0, 3))


def _run(config, faults, clients, mix, dirs, ops, seed):
    fault_model = FaultModel(random.Random(seed), *faults) if faults else None
    cluster = SwitchFSCluster(
        FSConfig(num_servers=4, cores_per_server=2, seed=seed, **config), faults=fault_model
    )
    fs0 = cluster.client(0)
    for d in range(dirs):
        cluster.run_op(fs0.mkdir(f"/d{d}"))
    sim, history = cluster.sim, History()
    procs = [
        sim.spawn(
            _client(cluster.client(i), i, sim, random.Random(seed * 10 + i),
                    mix, dirs, ops, history),
            name=f"client{i}",
        )
        for i in range(clients)
    ]

    def join():
        yield AllOf(sim, procs)

    sim.run_process(sim.spawn(join(), name="join"), until=sim.now + 1e6)
    cluster.settle()
    reader = cluster.client(clients)
    namespace = {}
    for d in range(dirs):
        listing = cluster.run_op(reader.readdir(f"/d{d}"))
        count = cluster.run_op(reader.statdir(f"/d{d}"))["entry_count"]
        namespace[d] = (sorted(listing["entries"]), count)
        history.check_read(d, next(history.clock), "readdir", listing, "after settle()")
    return history.violations, namespace


mixes = st.tuples(*[st.integers(0, 3) for _ in OPS]).filter(any)
fault_models = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from([0.0, 0.02, 0.05]),  # loss
        st.sampled_from([0.0, 0.05]),  # duplication
        st.sampled_from([0.0, 0.1]),  # reordering
    ),
)


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    clients=st.integers(1, 4),
    mix=mixes,
    dirs=st.integers(1, 3),
    ops=st.integers(1, 25),
    seed=st.integers(0, 10_000),
    faults=fault_models,
)
def test_switchfs_matches_synchronous_updates(clients, mix, dirs, ops, seed, faults):
    schedule = (faults, clients, mix, dirs, ops, seed)
    async_violations, async_ns = _run({}, *schedule)
    tiny_violations, tiny_ns = _run({"stale_stages": 1, "stale_index_bits": 1}, *schedule)
    sync_violations, sync_ns = _run({"async_updates": False, "recast": False}, *schedule)
    assert async_violations == [] and tiny_violations == [] and sync_violations == []
    assert async_ns == tiny_ns == sync_ns
    assert all(len(entries) == count for entries, count in async_ns.values())

