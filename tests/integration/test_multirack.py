"""Multi-rack leaf-spine deployments (§5.4).

The stale set moves from the ToR to the spine; with several spines,
directories are range-partitioned over them by fingerprint.  Semantics
must be identical to single-rack; the observable differences are longer
paths (4 links) and stale-set state spread over the spines."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.bench import run_stream
from repro.core import FSConfig, FSError, SwitchFSCluster, fingerprint_of, ROOT_ID
from repro.core.membership import plan_scale_up
from repro.switchfab import SwitchControlPlane
from repro.workloads import FixedOpStream, bootstrap, single_large_directory


def make(**overrides):
    defaults = dict(
        num_servers=4, cores_per_server=2, seed=14,
        topology="leaf-spine", num_racks=2,
    )
    defaults.update(overrides)
    return SwitchFSCluster(FSConfig(**defaults))


class TestLeafSpineSemantics:
    def test_full_op_surface(self):
        cluster = make()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(8):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.run_op(fs.delete("/d/f0"))
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == sorted(f"f{i}" for i in range(1, 8))
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 7
        cluster.run_op(fs.rename("/d/f1", "/d/g1"))
        assert cluster.run_op(fs.stat("/d/g1"))["name"] == "g1"

    def test_latency_pays_the_spine_detour(self):
        def create_latency(topology):
            cluster = make(topology=topology) if topology == "leaf-spine" else \
                SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2, seed=14))
            fs = cluster.client(0)
            cluster.run_op(fs.mkdir("/d"))
            t0 = cluster.sim.now
            cluster.run_op(fs.create("/d/f"))
            return cluster.sim.now - t0

        single = create_latency("single-rack")
        multi = create_latency("leaf-spine")
        assert multi > single  # two extra links each way

    def test_stale_set_at_spine(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/f"))
        fp = fingerprint_of(ROOT_ID, "d")
        assert cluster.control.switch_for(fp).stale_set.query(fp)

    def test_switch_failure_recovery_multirack(self):
        cluster = make(proactive_enabled=False)
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        for i in range(5):
            cluster.run_op(fs.create(f"/d/f{i}"))
        cluster.fail_switch()
        assert cluster.total_pending_entries() == 0
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 5


class TestMultipleSpines:
    def test_fingerprints_partition_across_spines(self):
        cluster = make(num_spine_switches=2, proactive_enabled=False)
        fs = cluster.client(0)
        # Create enough directories that both spines own some fingerprints.
        for i in range(12):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
            cluster.run_op(fs.create(f"/dir{i}/f"))
        occupancies = [s.occupancy for s in cluster.control.switches]
        assert all(o > 0 for o in occupancies), occupancies

    def test_semantics_with_two_spines(self):
        cluster = make(num_spine_switches=2)
        fs = cluster.client(0)
        for i in range(6):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
            for j in range(3):
                cluster.run_op(fs.create(f"/dir{i}/f{j}"))
        for i in range(6):
            listing = cluster.run_op(fs.readdir(f"/dir{i}"))
            assert sorted(listing["entries"]) == ["f0", "f1", "f2"]

    def test_failure_resets_every_spine(self):
        cluster = make(num_spine_switches=2, proactive_enabled=False)
        fs = cluster.client(0)
        for i in range(8):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
            cluster.run_op(fs.create(f"/dir{i}/f"))
        cluster.fail_switch()
        assert all(s.occupancy == 0 for s in cluster.control.switches)
        for i in range(8):
            assert cluster.run_op(fs.statdir(f"/dir{i}"))["entry_count"] == 1


def twelve_directories(cluster):
    fs = cluster.client(0)
    for i in range(12):
        cluster.run_op(fs.mkdir(f"/dir{i}"))
        cluster.run_op(fs.create(f"/dir{i}/f"))
    return fs


class TestStatsCoverEverySpine:
    """``switch_stats()`` is the sum over the switches, not spine 0's share."""

    def test_switch_stats_sum_over_spines(self):
        cluster = make(num_spine_switches=2, proactive_enabled=False)
        twelve_directories(cluster)
        stats = dataclasses.asdict(cluster.switch_stats())
        assert (stats["inserts"], stats["occupancy"]) == (24, 13)
        spines = cluster.control.switches
        assert len(spines) == 2
        per_spine = [
            dataclasses.asdict(SwitchControlPlane([spine]).stats()) for spine in spines
        ]
        assert all(share["inserts"] > 0 for share in per_spine)
        for name, total in stats.items():
            assert total == sum(share[name] for share in per_spine), name

    def test_measurement_window_counts_both_caches(self):
        cluster = make(
            num_spine_switches=2, switch_cache=True,
            switch_cache_stages=2, switch_cache_index_bits=6,
        )
        pop = bootstrap(cluster, single_large_directory(48), warm_clients=[0])
        caches = [spine.dentry_cache for spine in cluster.control.switches]
        before = [cache.hits + cache.misses for cache in caches]
        stream = FixedOpStream("stat", pop, seed=14, dir_choice="single")
        result = run_stream(cluster, stream, total_ops=300, inflight=8, op_label="stat")
        deltas = [cache.hits + cache.misses - b for cache, b in zip(caches, before)]
        assert all(delta > 0 for delta in deltas), deltas
        window = result.switch_cache
        assert window["hits"] + window["misses"] == sum(deltas) == 300


class TestStaleSetReconciliation:
    """After a migration the control plane clears the bits of provably
    settled directories — each at the switch that holds it, whatever the
    number of switches."""

    @staticmethod
    def moving_directories(cluster, count):
        view = cluster.membership.current
        _, _, moved = plan_scale_up(view, f"server-{len(view.servers)}")
        fps = {f"/dir{i}": fingerprint_of(ROOT_ID, f"dir{i}") for i in range(count)}
        moving = {d: fp for d, fp in fps.items() if fp % view.num_shards in moved}
        return fps, moving

    @pytest.mark.parametrize("spines", [1, 2])
    def test_bits_left_by_lost_removes_are_reclaimed(self, spines):
        cluster = make(num_spine_switches=spines, proactive_enabled=False)
        fs = cluster.client(0)
        for i in range(40):
            cluster.run_op(fs.mkdir(f"/dir{i}"))
        cluster.run_op(fs.statdir("/"))  # aggregate the root: nothing pending
        assert cluster.total_pending_entries() == 0
        assert cluster.switch_stats().occupancy == 0
        # A bit with nothing pending behind it, as a lost REMOVE leaves it.
        control = cluster.control
        fps, moving = self.moving_directories(cluster, 40)
        for fp in fps.values():
            assert control.switch_for(fp).stale_set.insert(fp)
        holders = {control.switches.index(control.switch_for(fp)) for fp in moving.values()}
        assert holders == set(range(spines))  # the scenario reaches every switch
        stats = cluster.scale_up()
        assert stats["stale_bits_cleared"] == len(moving)
        for name, fp in fps.items():
            held = [sw.stale_set.query(fp) for sw in control.switches]
            assert sum(held) == (0 if name in moving else 1), name
        assert cluster.switch_stats().occupancy == len(fps) - len(moving) == 35

    @pytest.mark.parametrize("spines", [1, 2])
    def test_bits_the_drain_already_cleared_are_not_counted(self, spines):
        """Fault-free, the online drain's REMOVE clears the moving
        directory's bit before the cutover: the control plane clears
        nothing more and reports so."""
        cluster = make(num_spine_switches=spines, proactive_enabled=False)
        twelve_directories(cluster)
        _, moving = self.moving_directories(cluster, 12)
        (fp,) = moving.values()
        assert cluster.control.switch_for(fp).stale_set.query(fp)
        occupancy = cluster.switch_stats().occupancy
        stats = cluster.scale_up()
        assert stats["drain_groups"] > 0
        assert not cluster.control.switch_for(fp).stale_set.query(fp)
        assert stats["stale_bits_cleared"] == 0
        assert cluster.switch_stats().occupancy == occupancy - 1

    @pytest.mark.parametrize("spines", [1, 2])
    def test_directory_with_pending_entries_keeps_its_bit(self, spines):
        cluster = make(num_spine_switches=spines, proactive_enabled=False)
        fs = twelve_directories(cluster)
        _, moving = self.moving_directories(cluster, 12)
        (name, fp), = moving.items()
        writer_fs = cluster.client(1)

        def writer():
            # Lands creates in the moving directory between the online
            # drain and the cutover, so entries are pending at reconcile.
            yield cluster.sim.timeout(10.0)
            for j in range(6):
                yield from writer_fs.create(f"{name}/g{j}")

        control = cluster.control
        seen = {}
        reconcile = control.reconcile_stale_set

        def spy(safe):
            safe = list(safe)
            seen["safe"] = safe
            seen["pending"] = cluster._pending_for_fp(fp)
            seen["bit"] = control.switch_for(fp).stale_set.query(fp)
            return reconcile(safe)

        control.reconcile_stale_set = spy
        proc = cluster.sim.spawn(writer(), name="writer")
        cluster.scale_up()
        assert seen["pending"] > 0 and seen["bit"] and fp not in seen["safe"]
        assert control.switch_for(fp).stale_set.query(fp)  # still scattered
        cluster.sim.run_process(proc)
        assert cluster.run_op(fs.statdir(name))["entry_count"] == 7
        assert not control.switch_for(fp).stale_set.query(fp)  # aggregated


class TestHashSeedIndependence:
    """No result depends on PYTHONHASHSEED: not even which spine a packet
    without a stale-set header climbs to."""

    SCRIPT = (
        "import dataclasses, json\n"
        "from tests.integration.test_multirack import make, twelve_directories\n"
        "cluster = make(num_spine_switches=2, proactive_enabled=False)\n"
        "twelve_directories(cluster)\n"
        "print(json.dumps({\n"
        "    'forwarded': [sw.forwarded for sw in cluster.control.switches],\n"
        "    'stats': dataclasses.asdict(cluster.switch_stats()),\n"
        "    'now': cluster.sim.now,\n"
        "}))\n"
    )

    def run_under(self, hash_seed):
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, cwd=root,
            capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout)

    def test_two_spine_run_is_identical_under_two_hash_seeds(self):
        first, second = self.run_under("0"), self.run_under("1")
        assert sum(first["forwarded"]) == first["stats"]["forwarded"] > 0
        assert first == second


class TestLeafSpineVirtualTimePinned:
    """Virtual time on leaf-spine, captured at the commit before the path
    factories were merged: which spine a packet climbs to must not move
    when it arrives.  (Re-captured once since, 8.8 us earlier from the
    first create on: mkdir now caches /d, so that create sends no
    lookup_dir.)"""

    @pytest.mark.parametrize("spines", [1, 2])
    def test_completion_timestamps(self, spines):
        cluster = make(num_spine_switches=spines)
        fs = cluster.client(0)
        stamps = []

        def op(gen):
            cluster.run_op(gen)
            stamps.append(cluster.sim.now)

        op(fs.mkdir("/d"))
        for i in range(40):
            op(fs.create(f"/d/f{i}"))
            if i % 7 == 6:
                op(fs.statdir("/d"))
        assert len(stamps) == 46
        assert cluster.sim.now == 995.8999999999991
        digest = hashlib.sha256(repr(stamps).encode()).hexdigest()
        assert digest[:16] == "929909596686ef81"


class TestConfigValidation:
    def test_bad_topology_rejected(self):
        with pytest.raises(ValueError):
            FSConfig(topology="mesh")

    def test_server_stale_set_on_leaf_spine_rejected(self):
        # Its spines would be passthrough and the run single-rack.
        with pytest.raises(ValueError, match="stale_backend='server' requires topology"):
            FSConfig(stale_backend="server", topology="leaf-spine")
        FSConfig(stale_backend="server", topology="single-rack")

    def test_bad_rack_count_rejected(self):
        with pytest.raises(ValueError):
            FSConfig(topology="leaf-spine", num_racks=0)

    def test_spines_without_leaf_spine_rejected(self):
        with pytest.raises(ValueError, match="leaf-spine"):
            FSConfig(topology="single-rack", num_spine_switches=3)
        FSConfig(topology="leaf-spine", num_spine_switches=3)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(stale_stages=0),
            dict(stale_index_bits=0),
            dict(stale_index_bits=60),
            dict(stale_index_bits=18),
            dict(switch_cache_stages=0),
            dict(switch_cache_index_bits=0),
            dict(switch_cache_index_bits=18),
        ],
    )
    def test_bad_table_geometry_rejected_up_front(self, bad):
        (field,) = bad
        with pytest.raises(ValueError, match=field.split("_")[0]):
            FSConfig(**bad)

    def test_one_index_bound_for_both_tables(self):
        # FINGERPRINT_BITS - TAG_BITS = 17 fingerprint bits above the tag.
        cfg = FSConfig(stale_index_bits=17, switch_cache_index_bits=17)
        assert cfg.stale_geometry.capacity == 10 << 17
        assert cfg.switch_cache_geometry.capacity == 4 << 17
