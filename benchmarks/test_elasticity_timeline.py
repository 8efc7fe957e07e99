"""Beyond the paper — elasticity: throughput through a live scale-up and
scale-down (DESIGN.md §13; λFS in PAPERS.md).

64 creates in flight into one shared directory on 4 servers.  At one
third of the completions a fifth server joins (live shard migration in),
at two thirds it leaves again.  The client keeps its stale membership
view across both epoch bumps, so the WrongEpoch redirect path is part of
the run.  Reported: a 20-bucket virtual-time throughput timeline and, per
transition, the online drain and the stall — the only stretch in which
the moving shards reject work.
"""

from repro.bench import format_table, make_cluster, scaled_config
from repro.sim import AllOf
from repro.workloads import FixedOpStream, bootstrap, single_large_directory

from _util import one_shot, save_table

OPS = 4000
INFLIGHT = 64
BUCKETS = 20


def _run():
    cluster = make_cluster("SwitchFS", scaled_config(num_servers=4))
    sim = cluster.sim
    pop = bootstrap(cluster, single_large_directory(OPS + 200), warm_clients=[0])
    stream = FixedOpStream("create", pop, seed=17, dir_choice="single")
    fs = cluster.client(0)
    issued = [0]
    completions = []
    transitions = {}

    def worker():
        while issued[0] < OPS:
            issued[0] += 1
            yield from stream.take()(fs)
            completions.append(sim.now)

    def controller():
        for name, share, change in (
            ("join", OPS // 3, cluster.scale_up_gen),
            ("leave", 2 * OPS // 3, lambda: cluster.scale_down_gen(cluster.servers[-1].addr)),
        ):
            while len(completions) < share:
                yield sim.timeout(50.0)
            at = sim.now
            transitions[name] = dict((yield from change()), at_us=at - start)

    def join(procs):
        yield AllOf(sim, procs)

    start = sim.now
    procs = [sim.spawn(worker(), name=f"elastic-worker-{w}") for w in range(INFLIGHT)]
    procs.append(sim.spawn(controller(), name="elastic-controller"))
    sim.run_process(sim.spawn(join(procs), name="elastic-join"))

    elapsed = completions[-1] - start
    width = elapsed / BUCKETS
    counts = [0] * BUCKETS
    for t in completions:
        counts[min(int((t - start) / width), BUCKETS - 1)] += 1
    return {
        "elapsed_us": elapsed,
        "width_us": width,
        "timeline_kops": [n / width * 1000.0 for n in counts],
        "transitions": transitions,
        "wrong_epoch_retries": fs.counters.get("wrong_epoch_retries"),
    }


def test_elasticity_timeline(benchmark):
    out = one_shot(benchmark, _run)
    width, timeline, transitions = out["width_us"], out["timeline_kops"], out["transitions"]

    # [from, to) of each stall, and the share of each bucket inside one.
    stalls = [(t["at_us"] + t["drain_us"], t["at_us"] + t["drain_us"] + t["stall_us"])
              for t in transitions.values()]
    shares = [
        sum(max(0.0, min(hi, (b + 1) * width) - max(lo, b * width)) for lo, hi in stalls) / width
        for b in range(BUCKETS)
    ]
    save_table(
        "elasticity_timeline",
        "\n\n".join([
            format_table(
                f"Elasticity: {OPS} hotspot creates through a join and a leave "
                "(4 servers, 64 in flight)",
                ["transition", "at us", "drain us", "drain groups", "stall us",
                 "migrated keys", "epoch"],
                [[name, f"{t['at_us']:.1f}", f"{t['drain_us']:.1f}", t["drain_groups"],
                  f"{t['stall_us']:.1f}", t["migrated_keys"], t["epoch"]]
                 for name, t in transitions.items()],
            ),
            format_table(
                f"throughput timeline ({BUCKETS} buckets of {width:.1f} us; whole run "
                f"{OPS / out['elapsed_us'] * 1000.0:.1f} Kops/s, "
                f"{out['wrong_epoch_retries']} wrong-epoch retries)",
                ["bucket", "from us", "Kops/s", "stalled share"],
                [[b, f"{b * width:.1f}", f"{timeline[b]:.1f}", f"{shares[b]:.0%}"]
                 for b in range(BUCKETS)],
            ),
        ]),
    )

    up, down = transitions["join"], transitions["leave"]
    assert (up["epoch"], down["epoch"]) == (1, 2)
    assert up["migrated_keys"] > 0 and down["migrated_keys"] > 0
    # The client rode through the bumps on its stale view.
    assert out["wrong_epoch_retries"] > 0
    # Scale-out costs a bounded stall, not a drain-the-world outage: each
    # stall is a few hundred us, and even a bucket lying wholly inside one
    # keeps completing ops on the shards that do not move.
    for t in (up, down):
        assert 0 < t["stall_us"] < 0.1 * out["elapsed_us"]
    assert min(timeline) > 0
    # The deepest dip of the run is a stalled bucket, the stalled buckets
    # run below the rest, and the run is back at its pre-join rate within
    # three buckets of each stall ending.
    stalled = [b for b in range(BUCKETS) if shares[b] >= 0.5]
    free = [b for b in range(BUCKETS) if shares[b] == 0]
    assert timeline.index(min(timeline)) in stalled

    def mean(buckets):
        return sum(timeline[b] for b in buckets) / len(buckets)

    assert mean(stalled) < 0.7 * mean(free)
    before_join = mean(range(int(up["at_us"] / width)))
    for _lo, hi in stalls:
        ended = int(hi / width)
        assert max(timeline[ended + 1:ended + 4]) >= before_join
