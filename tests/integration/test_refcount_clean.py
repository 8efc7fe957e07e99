"""A measured window leaves no cyclic garbage and a bounded heap behind.

``run_stream`` and ``run_fanin`` keep the cyclic collector off for the
whole window on the grounds that the op path is refcount-clean
(DESIGN.md §9).  These tests hold them to it: with the collector off, a
window ends with nothing for ``gc.collect()`` to find, and the heap
blocks one create leaves behind (ROADMAP ledger item (c)) stay under a
pinned ceiling.
"""

import cProfile
import gc
import os
import sys
import tracemalloc
from collections import defaultdict

import pytest

import repro
from repro.bench import make_cluster, run_stream, scaled_config
from repro.core.schema import _file_hash
from repro.sim import Simulator
from repro.errors import ENOENT, FSError
from repro.workloads import (
    FixedOpStream, OpStream, Population, bootstrap, run_fanin, safe_op,
)


pytestmark = pytest.mark.usefixtures("collector_off")


def _hot_directory(seed=17, files=200, **config):
    cluster = make_cluster("SwitchFS", scaled_config(num_servers=4, seed=seed, **config))
    population = bootstrap(
        cluster, Population(dirs=["shared"], files_per_dir=files), warm_clients=[0, 1]
    )
    return cluster, population


def test_create_window_leaves_no_cyclic_garbage():
    cluster, population = _hot_directory()
    stream = FixedOpStream("create", population, seed=17, dir_choice="single")
    run_stream(cluster, stream, 200, inflight=32)  # warm-up
    gc.collect()
    result = run_stream(cluster, stream, 2000, inflight=32)
    assert result.ops_completed == 2000
    assert gc.collect() == 0


def test_fanin_stat_window_leaves_no_cyclic_garbage():
    cluster, population = _hot_directory()

    def make_stream(a):
        return FixedOpStream("stat", population, seed=17 + a, dir_choice="single")

    def drive(ops):
        return run_fanin(
            cluster, make_stream, users=10_000, offered_load_ops=1_000_000.0,
            total_ops=ops, aggregates=2, seed=17,
        )

    drive(200)  # warm-up
    gc.collect()
    result = drive(2000)
    assert result.ops_completed == 2000
    assert gc.collect() == 0


class _Missing(OpStream):
    """Stats of absent files and mkdirs under absent directories: every op
    answers ENOENT, which the thunk swallows, as a mix's racing ops do."""

    def __init__(self, directory):
        super().__init__("missing")
        self._directory = directory

    def next_thunk(self):
        i = self.issued
        if i % 2:
            path = f"{self._directory}/absent{i}"
            return lambda fs: safe_op(fs, fs.stat(path), (ENOENT,))
        path = f"{self._directory}/absent{i}/d"
        return lambda fs: safe_op(fs, fs.mkdir(path), (ENOENT,))


def test_failed_op_window_leaves_no_cyclic_garbage():
    """A failed op goes through LibFS's retry policy and re-raises: that
    path is refcount-clean too."""
    cluster, population = _hot_directory()
    stream = _Missing(f"/{population.dirs[0]}")
    run_stream(cluster, stream, 100, inflight=32)  # warm-up
    gc.collect()
    result = run_stream(cluster, stream, 1000, inflight=32)
    assert result.ops_completed == 1000
    assert gc.collect() == 0


def test_failed_run_op_leaves_no_cyclic_garbage():
    """A failed ``cluster.run_op`` raises the process's exception through
    ``run_process`` and ``run_op``: neither frame may keep the process, or
    each failure is a process → exception → traceback → frame cycle."""
    cluster, population = _hot_directory()
    fs = cluster.client(0)
    absent = f"/{population.dirs[0]}/absent"

    def stat_absent():
        try:
            cluster.run_op(fs.stat(absent))
        except FSError as err:
            return err.code

    assert stat_absent() == ENOENT  # warm-up
    gc.collect()
    assert {stat_absent() for _ in range(100)} == {ENOENT}
    assert gc.collect() == 0


# Heap blocks one create into a hot directory leaves allocated
# (`sys.getallocatedblocks`, CPython 3.11, this exact set-up): 34.4 while
# every finished process sat in a cycle until a collection, 25.9 with the
# cycles gone, 27.97 at PR 20 (nothing recycled), 17.0 now that a finished
# create leaves no reply, no lock and one routing-memo entry behind, 16.74
# once a kept reply was its packet, and 12.30 with the metadata values as
# tuple records (no per-record `__dict__` values block) and one shared
# `DirEntry` per (is_dir, perm).  Later PRs moved it back to 13.72; it
# was 11.01 once an applied WAL record let go of its payload (the
# change-log record's `ChangeLogEntry` and tuple, a pushed log's
# re-logged records, the round's "agg" batch), and is 9.95 now that a
# directory's key index stays a list and a logged put or txn entry is no
# 3-tuple.  CPython 3.9.18 / 3.11.7 / 3.12.1 measure 10.12 / 9.95 / 9.96
# here, and 11.17 / 11.01 / 11.01 before.
# What remains is model state: the inode and entry in the store, the
# unapplied put/txn records of the WAL.  It is a count, the same on every
# run and under every PYTHONHASHSEED, so it gates with no wall clock; the
# ceiling sits between the two, so a dict index or a 3-tuple per logged
# op fails it on every interpreter CI runs.  (What the tables and the
# reply store hold when a window ends is counted directly by the churn
# test below.)
CREATE_BLOCKS_CEILING = 10.6


def test_create_allocation_budget():
    # The routing memo is process-wide: the names the tests above hashed
    # would hit it here (7.40 blocks now, 8.46 at the commit before).
    _file_hash.cache_clear()
    cluster, population = _hot_directory()
    stream = FixedOpStream("create", population, seed=17, dir_choice="single")
    run_stream(cluster, stream, 500, inflight=32)  # warm-up: pools and caches fill
    gc.collect()
    ops = 2000
    before = sys.getallocatedblocks()
    run_stream(cluster, stream, ops, inflight=32)
    per_op = (sys.getallocatedblocks() - before) / ops
    assert per_op <= CREATE_BLOCKS_CEILING, per_op


# Bytes one create into a hot directory leaves allocated (tracemalloc,
# one frame, started before the set-up; the 2 000 creates after a
# 500-create warm-up).  By site, CPython 3.11.7:
#   190 B  the `_file_hash` memo entry (130) and its 256-bit int (60): the
#          window's names all fit under the memo's 4 096 bound
#   115 B  the store: `_mem`'s slots (97) and the key's slot in its
#          directory's `_dirs` list (18, amortised)
#   131 B  the ("E", pid, name) and ("F", pid, name) keys
#    73 B  the payloads of the unapplied WAL records: the inode put's
#          (key, value) (56) and the entry's key and value slots in the
#          entry-list txn's two tuples (17)
#    95 B  the `FileInode` record
#    56 B  the name string
#    48 B  the WAL's list slots, amortised
#    82 B  what is in flight when the window closes: heap entries,
#          replies not yet acknowledged
# 790 B in all (3.9.18 / 3.12.1: 857 / 782).  It was 911 B (979 / 904)
# while the `_dirs` index turned into a dict on out-of-name-order creates
# (74 B) and the WAL kept a ("put", key, value) tuple per put (64 B) and
# one per txn op in a list copy (76 B), and 1 141 B (1 209 / 1 133) while
# applied records kept their payloads: the change-log record's
# `ChangeLogEntry` (90) and payload tuple (64), a pushed log's re-logged
# records (41) and the rounds' "agg" batches (8).  The latency sample is
# not retained here: the window's result is dropped.  The ceiling sits
# between 790 and 911 on all three interpreters.
CREATE_BYTES_CEILING = 880.0


def test_create_memory_per_op():
    _file_hash.cache_clear()  # as in the blocks budget above
    tracemalloc.start()
    try:
        cluster, population = _hot_directory()
        stream = FixedOpStream("create", population, seed=17, dir_choice="single")
        run_stream(cluster, stream, 500, inflight=32)  # warm-up
        gc.collect()
        ops = 2000
        before = tracemalloc.get_traced_memory()[0]
        run_stream(cluster, stream, ops, inflight=32)
        per_op = (tracemalloc.get_traced_memory()[0] - before) / ops
    finally:
        tracemalloc.stop()
    assert per_op <= CREATE_BYTES_CEILING, per_op


class _Churn(OpStream):
    """Create *names* fresh files in the hot directory, then delete them."""

    def __init__(self, directory, names):
        super().__init__("churn")
        self._paths = [f"{directory}/churn{i}" for i in range(names)]

    def next_thunk(self):
        i, n = self.issued - 1, len(self._paths)
        path = self._paths[i % n]
        return (lambda fs: fs.create(path)) if i < n else (lambda fs: fs.delete(path))


def test_churn_leaves_protocol_state_sized_by_load_in_flight():
    """2 000 names created and deleted again, 64 in flight: when the window
    ends nothing is in flight, so no lock is in a table — a deleted name
    keeps none either — and the servers hold the replies no later request
    acknowledged: those sent while the last calls were outstanding (116
    here, a couple of in-flight levels), not the 4 000 of the window."""
    inflight = 64
    cluster, population = _hot_directory()
    result = run_stream(cluster, _Churn(f"/{population.dirs[0]}", 2000), 4000, inflight=inflight)
    assert result.ops_completed == 4000
    cluster.settle()
    locks = sum(len(s._inode_locks) + len(s._changelog_locks) for s in cluster.servers)
    replies = sum(len(r) for s in cluster.servers for r in s.node._replies.values())
    assert locks == 0
    assert 0 < replies <= 4 * inflight, replies


# The kernel's tie-break counter is a push counter: every heap entry takes
# one tick, and so does every retransmit deadline a call sets (pushed or
# not).  Ticks per operation is therefore an exact event budget — the same
# on every run, no wall clock — and it gates the "a heap entry for every
# model event and for nothing else" rule (DESIGN.md §9-§10).  Measured
# with this exact set-up: a create took 26.203 ticks with a dispatcher
# resume per packet, a grant-time resume per contended CPU charge, a
# worker process per recast entry and a completion entry per served
# request, and takes 22.297 without them; a switch-cached stat went
# 10.2205 -> 10.1845 (most never reach a server).  A hold per run of CPU
# between two blocking points, not per cost constant (two per create
# instead of five, one per stat miss instead of two, at most one per core
# for a recast apply), then took a create 22.297 -> 14.5425 and a stat
# 10.1845 -> 10.1485.  Each ceiling sits between the last two counts, so
# a per-constant hold or any of the earlier entries coming back fails it.
CREATE_TICKS_CEILING = 18.0
FANIN_STAT_TICKS_CEILING = 10.165

# Of those entries, the ones due at the current instant with a fresh tick
# (succeed/fail, a process boot, an inbox arrival) skip the heap for the
# kernel's ready queue; heappush calls per op, counted as the ledger counts
# them, went 21.6525 -> 12.6885 per create and 9.1895 -> 5.149 per
# switch-cached stat.  Moving back, the ready entries would add per create
# 6.02 (succeed/fail, 4.55 of them core grants), 2.69 (inbox) and 0.25
# (boot), per stat 1.00, 1.04 and 2.00.  The hold per run of CPU then
# took them 12.4745 -> 8.3765 per create and 5.149 -> 5.113 per stat:
# each ceiling sits between those two counts, and fails whichever kind of
# entry returns to the heap, or a hold per cost constant.
CREATE_PUSHES_CEILING = 10.4
FANIN_STAT_PUSHES_CEILING = 5.13

# The packet hop's cost: calls into `repro/net` per op, counted as the
# ledger counts a layer's calls (its own functions' activations, and the
# builtins and standard library it calls).  A create went 123.695 ->
# 76.316 and a switch-cached stat 65.383 -> 41.878 once a plan became one
# stages tuple compiled once per shared chain, the hop a plain entry with
# no `__init__`, the inbox drain the dispatcher and a kept reply its sent
# packet; each ceiling sits halfway between the two counts.
CREATE_NET_CALLS_CEILING = 100.0
FANIN_STAT_NET_CALLS_CEILING = 53.5

# The kernel's share, counted the same way: 79.9655 calls into
# `repro/sim` per create (134.8695 with a hold per cost constant) and
# 53.773 per switch-cached stat (54.062), about 5.5 and 5.3 per tick.
# Each ceiling sits less than one kernel entry's calls above its count,
# so an entry that comes back per op, or a costlier dispatch of the ones
# there are, fails it.
CREATE_SIM_CALLS_CEILING = 85.0
FANIN_STAT_SIM_CALLS_CEILING = 59.0

# Processes spawned per create: a push of a change-log that already has
# one waiting for the group's change-log lock took 0.143 a create; with
# at most one queued push per log it is 0.0395.  The ceiling sits between.
CREATE_SPAWNS_CEILING = 0.09

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _layer_calls(stats, layer):
    """Calls charged to `repro/<layer>` in a cProfile run: code outside the
    package works for whoever called it, shared by call count."""
    layer_dir = _REPRO_DIR + layer + os.sep
    callers = defaultdict(list)
    for entry in stats:
        for edge in entry.calls or ():
            callers[edge.code].append((entry.code, edge.callcount))

    def share(code, path):
        if not isinstance(code, str) and code.co_filename.startswith(_REPRO_DIR):
            return 1.0 if code.co_filename.startswith(layer_dir) else 0.0
        edges = [(caller, n) for caller, n in callers[code] if caller not in path]
        total = sum(n for _, n in edges)
        path = path + (code,)
        return sum(n * share(caller, path) for caller, n in edges) / total if total else 0.0

    return sum(
        entry.callcount * share(entry.code, ()) if not isinstance(entry.code, str)
        and entry.code.co_filename.startswith(_REPRO_DIR)
        else sum(n * share(caller, (entry.code,)) for caller, n in callers[entry.code])
        for entry in stats
    )


def _ticks(sim, drive, ops):
    before = sim.reserve_seq()
    drive(ops)
    return (sim.reserve_seq() - before - 1) / ops


def _ticks_pushes_and_calls(sim, drive, ops):
    """Ticks, ``heappush`` calls, `repro/net` calls, `repro/sim` calls and
    process spawns per op."""
    profiler = cProfile.Profile()
    ticks = _ticks(sim, lambda n: profiler.runcall(drive, n), ops)
    stats = profiler.getstats()
    pushes = sum(
        entry.callcount for entry in stats
        if entry.code == "<built-in method _heapq.heappush>"
    )
    spawns = sum(entry.callcount for entry in stats if entry.code is Simulator.spawn.__code__)
    return (ticks, pushes / ops, _layer_calls(stats, "net") / ops,
            _layer_calls(stats, "sim") / ops, spawns / ops)


def test_create_event_budget():
    cluster, population = _hot_directory()
    stream = FixedOpStream("create", population, seed=17, dir_choice="single")
    run_stream(cluster, stream, 500, inflight=32)  # warm-up
    ticks, pushes, net_calls, sim_calls, spawns = _ticks_pushes_and_calls(
        cluster.sim, lambda ops: run_stream(cluster, stream, ops, inflight=32), 2000
    )
    assert ticks <= CREATE_TICKS_CEILING, ticks
    assert pushes <= CREATE_PUSHES_CEILING, pushes
    assert net_calls <= CREATE_NET_CALLS_CEILING, net_calls
    assert sim_calls <= CREATE_SIM_CALLS_CEILING, sim_calls
    assert spawns <= CREATE_SPAWNS_CEILING, spawns


def test_switch_cached_stat_event_budget():
    cluster, population = _hot_directory(switch_cache=True)

    def drive(ops):
        return run_fanin(
            cluster,
            lambda a: FixedOpStream("stat", population, seed=17 + a, dir_choice="single"),
            users=10_000, offered_load_ops=1_000_000.0, total_ops=ops, aggregates=2, seed=17,
        )

    drive(200)  # warm-up
    ticks, pushes, net_calls, sim_calls, _spawns = _ticks_pushes_and_calls(cluster.sim, drive, 2000)
    assert ticks <= FANIN_STAT_TICKS_CEILING, ticks
    assert pushes <= FANIN_STAT_PUSHES_CEILING, pushes
    assert net_calls <= FANIN_STAT_NET_CALLS_CEILING, net_calls
    assert sim_calls <= FANIN_STAT_SIM_CALLS_CEILING, sim_calls


# Fan-in run cost is O(offered load), not O(users): users are rows of flat
# array columns, so ten times the population changes which user an arrival
# is charged to and nothing the kernel sees.  Exact, no wall clock: the
# same cold window takes the same ticks (15.052 an op with the switch cache
# off, 10.5165 with it on) and yields the same virtual-time result.
@pytest.mark.parametrize("switch_cache", [False, True])
def test_fanin_event_budget_is_flat_in_users(switch_cache):
    def window(users):
        cluster, population = _hot_directory(switch_cache=switch_cache)
        result = []

        def drive(ops):
            result.append(run_fanin(
                cluster,
                lambda a: FixedOpStream("stat", population, seed=17 + a, dir_choice="single"),
                users=users, offered_load_ops=1_000_000.0, total_ops=ops, aggregates=2, seed=17,
            ))

        ticks = _ticks(cluster.sim, drive, 2000)
        return ticks, result[0].throughput_kops, result[0].mean_latency_us

    assert window(10_000) == window(100_000)


# ... and so is its memory.  Per-user state is kept only for users who
# arrive (bounded by the op count), and the one O(users) structure is the
# Zipf table the aggregates share: 8 B a cell, one cell per user of an
# aggregate, so 4 B per added user at two aggregates.  The tracemalloc
# peak of the same cold call (table build included) grew by 36.2 B per
# added user with dense per-user columns and an alias table, and by 4.3 B
# with the sparse table; the ceiling sits between the two.
FANIN_PEAK_BYTES_PER_USER_CEILING = 10.0


def test_fanin_memory_is_flat_in_users():
    def peak(users):
        cluster, population = _hot_directory()
        tracemalloc.start()
        try:
            run_fanin(
                cluster,
                lambda a: FixedOpStream("stat", population, seed=17 + a, dir_choice="single"),
                users=users, offered_load_ops=1_000_000.0, total_ops=2000, aggregates=2, seed=17,
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_user = (peak(100_000) - peak(10_000)) / 90_000
    assert per_user <= FANIN_PEAK_BYTES_PER_USER_CEILING, per_user


def test_routing_memo_serves_one_op():
    """The routing memo's one job: the client routes a create's name and
    the server re-checks it, one miss and one hit.  A window longer than
    the bound must still get exactly that, and leave the memo at its
    bound, not holding every name the window made."""
    cluster, population = _hot_directory()
    stream = FixedOpStream("create", population, seed=17, dir_choice="single")
    run_stream(cluster, stream, 200, inflight=32)  # warm-up
    # The memo is process-wide, and an earlier set-up like this one made
    # the same names under the same directory id.
    _file_hash.cache_clear()
    creates = 6000
    before = _file_hash.cache_info()
    result = run_stream(cluster, stream, creates, inflight=32)
    after = _file_hash.cache_info()
    assert result.ops_completed == creates
    assert after.misses - before.misses == creates
    assert after.hits - before.hits == creates
    assert after.currsize <= after.maxsize < creates, after


# What one bootstrapped file costs the host (tracemalloc, bytes retained
# per added file from 20 000 to 100 000 files in one directory on 4
# servers, CPython 3.11), site by site:
#   96 B  the FileInode record (a 6-field tuple; the times and the parent
#         id are shared objects)
#   64 B  its ("F", pid, name) key and 64 B the ("E", pid, name) key
#   57 B  the name string, shared by the inode and both keys
#   93 B  the two store-dict slots, amortised over the dict's growth
#   17 B  the two keys' slots in their directories' sorted key lists
# with the shared DirEntry value a reference: 391 B.  The peak this test
# takes, which adds the dicts' transient resizes, measured 397-409 B.  It
# measured 760 B (618 B retained) while the routing memo kept every name
# bootstrap hashed (128 B a name with its int) and while installs out of
# name order ("pre10" < "pre9") turned each directory's key list into a
# dict (116 B a file instead of 17).
BOOTSTRAP_PEAK_BYTES_PER_FILE_CEILING = 480.0


def test_bootstrap_memory_per_file():
    def peak(files):
        cluster = make_cluster("SwitchFS", scaled_config(num_servers=4, seed=17))
        tracemalloc.start()
        try:
            bootstrap(cluster, Population(dirs=["shared"], files_per_dir=files))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_file = (peak(50_000) - peak(10_000)) / 40_000
    assert per_file <= BOOTSTRAP_PEAK_BYTES_PER_FILE_CEILING, per_file
