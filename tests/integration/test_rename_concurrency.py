"""Concurrent rename stress: the lock-free-parents design must stay
deadlock-free and linearizable under racing renames, creates, and reads."""

from repro.core import FSConfig, FSError, SwitchFSCluster
from repro.sim import AllOf


def make():
    return SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=4, seed=77))


def run_all(cluster, gens):
    procs = [cluster.sim.spawn(g, name=f"g{i}") for i, g in enumerate(gens)]

    def join():
        yield AllOf(cluster.sim, procs)

    cluster.sim.run_process(cluster.sim.spawn(join(), name="join"), until=5e6)


class TestConcurrentRenames:
    def test_many_parallel_renames_complete(self):
        cluster = make()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/a"))
        cluster.run_op(fs.mkdir("/b"))
        for i in range(24):
            cluster.run_op(fs.create(f"/a/f{i}"))

        def rn(i):
            yield from fs.rename(f"/a/f{i}", f"/b/g{i}")

        run_all(cluster, [rn(i) for i in range(24)])
        listing_a = cluster.run_op(fs.readdir("/a"))
        listing_b = cluster.run_op(fs.readdir("/b"))
        assert listing_a["entries"] == []
        assert sorted(listing_b["entries"]) == sorted(f"g{i}" for i in range(24))
        assert cluster.run_op(fs.statdir("/a"))["entry_count"] == 0
        assert cluster.run_op(fs.statdir("/b"))["entry_count"] == 24

    def test_opposite_direction_renames_no_deadlock(self):
        cluster = make()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/a"))
        cluster.run_op(fs.mkdir("/b"))
        for i in range(10):
            cluster.run_op(fs.create(f"/a/x{i}"))
            cluster.run_op(fs.create(f"/b/y{i}"))

        def a_to_b(i):
            yield from fs.rename(f"/a/x{i}", f"/b/x{i}")

        def b_to_a(i):
            yield from fs.rename(f"/b/y{i}", f"/a/y{i}")

        gens = []
        for i in range(10):
            gens.append(a_to_b(i))
            gens.append(b_to_a(i))
        run_all(cluster, gens)
        a = cluster.run_op(fs.readdir("/a"))["entries"]
        b = cluster.run_op(fs.readdir("/b"))["entries"]
        assert sorted(a) == sorted(f"y{i}" for i in range(10))
        assert sorted(b) == sorted(f"x{i}" for i in range(10))

    def test_racing_renames_to_same_destination(self):
        """Exactly one of two renames targeting the same dst may win."""
        cluster = make()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/a"))
        cluster.run_op(fs.create("/d/b"))
        outcomes = []

        def rn(src):
            try:
                yield from fs.rename(src, "/d/winner")
                outcomes.append(("ok", src))
            except FSError as exc:
                outcomes.append((exc.code, src))

        run_all(cluster, [rn("/d/a"), rn("/d/b")])
        codes = sorted(code for code, _ in outcomes)
        assert codes == ["EEXIST", "ok"]
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 2

    def test_rename_immediately_after_create(self):
        """The pending CREATE entry and the rename's DELETE entry live in
        the same change-log; application order must make the old name
        vanish."""
        cluster = make()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))

        def create_then_rename(i):
            yield from fs.create(f"/d/tmp{i}")
            yield from fs.rename(f"/d/tmp{i}", f"/d/final{i}")

        run_all(cluster, [create_then_rename(i) for i in range(12)])
        listing = cluster.run_op(fs.readdir("/d"))
        assert sorted(listing["entries"]) == sorted(f"final{i}" for i in range(12))
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 12

    def test_rename_into_recently_deleted_name(self):
        """A pending DELETE(dst) entry must not erase the renamed entry."""
        cluster = make()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.create("/d/target"))
        cluster.run_op(fs.create("/d/mover"))
        cluster.run_op(fs.delete("/d/target"))      # DELETE(target) pending
        cluster.run_op(fs.rename("/d/mover", "/d/target"))
        listing = cluster.run_op(fs.readdir("/d"))
        assert listing["entries"] == ["target"]
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 1
        assert cluster.run_op(fs.stat("/d/target"))["name"] == "target"

    def test_renames_mixed_with_creates_and_reads(self):
        cluster = make()
        fs = cluster.client(0)
        cluster.run_op(fs.mkdir("/d"))
        cluster.run_op(fs.mkdir("/e"))
        for i in range(8):
            cluster.run_op(fs.create(f"/d/s{i}"))

        def renamer(i):
            yield from fs.rename(f"/d/s{i}", f"/e/s{i}")

        def creator(i):
            yield from fs.create(f"/d/c{i}")

        def reader():
            yield from fs.readdir("/d")
            yield from fs.statdir("/e")

        gens = [renamer(i) for i in range(8)] + [creator(i) for i in range(8)]
        gens += [reader() for _ in range(4)]
        run_all(cluster, gens)
        d = cluster.run_op(fs.readdir("/d"))["entries"]
        e = cluster.run_op(fs.readdir("/e"))["entries"]
        assert sorted(d) == sorted(f"c{i}" for i in range(8))
        assert sorted(e) == sorted(f"s{i}" for i in range(8))
