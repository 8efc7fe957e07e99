"""Beyond the paper — million-user fan-in at a fixed offered load
(DESIGN.md §16).

The open-loop client-population engine drives a stat hotspot (512 files,
8 servers) at 200 000 offered ops per simulated second over 4 aggregate
processes while the logical user count sweeps 10 K -> 100 K -> 1 M.  Users
are draws from one shared Zipf(0.99) table, with state kept only for those
who arrive, not processes, so the simulated run depends on the load, not on
the user count: the arms differ only in how many distinct users got to
issue an op.  A fourth arm reruns
the largest population with a server joining at the half-way mark, which
surfaces the per-user cache-epoch catch-up.

Virtual-time columns only: what a million users cost the host is the
ledger's ``fanin_1m_stat`` (``setup_s`` included).
"""

from repro.bench import format_table, make_cluster, scaled_config
from repro.bench.sweep import sweep
from repro.workloads import FixedOpStream, bootstrap, run_fanin, single_large_directory

from _util import one_shot, save_table

OPS = 4000
OFFERED_LOAD_OPS = 200_000.0
AGGREGATES = 4
USERS = [10_000, 100_000, 1_000_000]


def _run_arm(point):
    users, scale_up = point
    cluster = make_cluster("SwitchFS", scaled_config(num_servers=8))
    pop = bootstrap(cluster, single_large_directory(512),
                    warm_clients=list(range(AGGREGATES)))
    joined = {}

    def join_half_way():
        yield cluster.sim.timeout(0.5 * OPS / OFFERED_LOAD_OPS * 1e6)
        joined.update((yield from cluster.scale_up_gen()))

    result = run_fanin(
        cluster,
        lambda a: FixedOpStream("stat", pop, seed=17 + a, dir_choice="single"),
        users=users,
        offered_load_ops=OFFERED_LOAD_OPS,
        total_ops=OPS,
        aggregates=AGGREGATES,
        seed=42,
        extra_procs=[join_half_way()] if scale_up else None,
    )
    pops = result.populations.values()
    return {
        "arm": f"{users:,} users" + (" + join" if scale_up else ""),
        "achieved_ops": round(result.throughput_ops, 1),
        "mean_us": round(result.mean_latency_us, 3),
        "p99_us": round(result.p99_latency_us(), 3),
        "peak_inflight": result.inflight,
        "active_users": sum(p["active_users"] for p in pops),
        "epoch_catchups": sum(p["epoch_catchups"] for p in pops),
        "final_epoch": joined.get("epoch", 0),
        "migrated_keys": joined.get("migrated_keys", 0),
    }


def test_fanin_curve(benchmark):
    points = [(users, False) for users in USERS] + [(USERS[-1], True)]
    rows = one_shot(benchmark, lambda: sweep(_run_arm, points))
    save_table(
        "fanin_curve",
        format_table(
            f"Fan-in: {OPS} stats at {OFFERED_LOAD_OPS:,.0f} offered ops/s, "
            f"{AGGREGATES} aggregates, 8 servers",
            ["arm", "achieved ops/s", "mean us", "p99 us", "peak in-flight",
             "active users", "epoch catch-ups", "final epoch", "migrated keys"],
            [list(row.values()) for row in rows],
        ),
    )

    *plain, joined = rows
    sim_columns = ("achieved_ops", "mean_us", "p99_us", "peak_inflight")
    for row in plain:
        # Same arrivals, same service: the run is O(load), not O(users).
        assert [row[c] for c in sim_columns] == [plain[0][c] for c in sim_columns]
        assert row["epoch_catchups"] == 0
    # The cluster keeps up with the offered rate, and a larger population
    # spreads the same ops over more distinct users.
    assert plain[0]["achieved_ops"] > 0.95 * OFFERED_LOAD_OPS
    active = [row["active_users"] for row in plain]
    assert active == sorted(active) and active[0] < active[-1]
    # A join bumps the epoch under a million users: each active user
    # catches up at its next completion, at no cost to the offered load.
    assert joined["final_epoch"] == 1 and joined["migrated_keys"] > 0
    assert joined["epoch_catchups"] > 0
    assert joined["achieved_ops"] == plain[-1]["achieved_ops"]
