"""End-to-end scenario tests: realistic multi-step application flows."""

import pytest

from repro.core import FSConfig, FSError, SwitchFSCluster


@pytest.fixture
def cluster():
    return SwitchFSCluster(FSConfig(num_servers=4, cores_per_server=2, seed=23))


@pytest.fixture
def fs(cluster):
    return cluster.client(0)


class TestBuildPipelineScenario:
    """A compile job: create temp outputs, rename over finals, clean up."""

    def test_compile_and_promote(self, cluster, fs):
        cluster.run_op(fs.mkdir("/build"))
        cluster.run_op(fs.mkdir("/build/out"))
        # Compile step writes temps.
        for unit in ("main", "util", "net"):
            cluster.run_op(fs.create(f"/build/out/{unit}.o.tmp"))
        # Promotion renames temps over finals (the paper's burst-rename
        # motivator: compute engines rename outputs on completion).
        for unit in ("main", "util", "net"):
            cluster.run_op(fs.rename(f"/build/out/{unit}.o.tmp", f"/build/out/{unit}.o"))
        listing = cluster.run_op(fs.readdir("/build/out"))
        assert sorted(listing["entries"]) == ["main.o", "net.o", "util.o"]
        assert cluster.run_op(fs.statdir("/build/out"))["entry_count"] == 3
        # Clean rebuild: delete everything and remove the directory.
        for unit in ("main", "util", "net"):
            cluster.run_op(fs.delete(f"/build/out/{unit}.o"))
        cluster.run_op(fs.rmdir("/build/out"))
        assert cluster.run_op(fs.readdir("/build"))["entries"] == []


class TestEdaTempFileScenario:
    """EDA emulation: batch create + batch delete of temp files (§2.1)."""

    def test_temp_churn_keeps_counts_exact(self, cluster, fs):
        cluster.run_op(fs.mkdir("/eda"))
        for wave in range(3):
            for i in range(15):
                cluster.run_op(fs.create(f"/eda/w{wave}-t{i}"))
            info = cluster.run_op(fs.statdir("/eda"))
            assert info["entry_count"] == 15
            for i in range(15):
                cluster.run_op(fs.delete(f"/eda/w{wave}-t{i}"))
            info = cluster.run_op(fs.statdir("/eda"))
            assert info["entry_count"] == 0
        cluster.run_op(fs.rmdir("/eda"))


class TestMultiTenantScenario:
    """Two clients working in sibling trees with a shared ingest dir."""

    def test_tenants_do_not_interfere(self, cluster):
        a, b = cluster.client(0), cluster.client(1)
        cluster.run_op(a.mkdir("/tenant-a"))
        cluster.run_op(b.mkdir("/tenant-b"))
        cluster.run_op(a.mkdir("/shared"))
        for i in range(6):
            cluster.run_op(a.create(f"/tenant-a/a{i}"))
            cluster.run_op(b.create(f"/tenant-b/b{i}"))
            cluster.run_op(a.create(f"/shared/from-a-{i}"))
            cluster.run_op(b.create(f"/shared/from-b-{i}"))
        assert cluster.run_op(a.statdir("/tenant-a"))["entry_count"] == 6
        assert cluster.run_op(b.statdir("/tenant-b"))["entry_count"] == 6
        shared = cluster.run_op(b.readdir("/shared"))
        assert len(shared["entries"]) == 12

    def test_tenant_teardown_blocks_other_tenant_writes(self, cluster):
        a, b = cluster.client(0), cluster.client(1)
        cluster.run_op(a.mkdir("/dropzone"))
        cluster.run_op(b.statdir("/dropzone"))  # b caches the directory
        cluster.run_op(a.rmdir("/dropzone"))
        with pytest.raises(FSError) as err:
            cluster.run_op(b.create("/dropzone/late"))
        assert err.value.code in ("ENOENT", "EINVALIDPATH")


class TestDeepTreeScenario:
    def test_six_levels(self, cluster, fs):
        path = ""
        for depth in range(6):
            path += f"/l{depth}"
            cluster.run_op(fs.mkdir(path))
        cluster.run_op(fs.create(path + "/leaf"))
        assert cluster.run_op(fs.stat(path + "/leaf"))["name"] == "leaf"
        # Every intermediate level lists exactly its child.
        check = ""
        for depth in range(5):
            check += f"/l{depth}"
            listing = cluster.run_op(fs.readdir(check))
            assert listing["entries"] == [f"l{depth + 1}"]

    def test_teardown_bottom_up(self, cluster, fs):
        for p in ("/x", "/x/y", "/x/y/z"):
            cluster.run_op(fs.mkdir(p))
        with pytest.raises(FSError):
            cluster.run_op(fs.rmdir("/x"))  # not empty
        cluster.run_op(fs.rmdir("/x/y/z"))
        cluster.run_op(fs.rmdir("/x/y"))
        cluster.run_op(fs.rmdir("/x"))
        listing = cluster.run_op(fs.readdir("/"))
        assert "x" not in listing["entries"]


class TestReadYourWritesAcrossClients:
    def test_write_then_other_client_reads(self, cluster):
        writer, reader = cluster.client(0), cluster.client(1)
        cluster.run_op(writer.mkdir("/log"))
        for i in range(10):
            cluster.run_op(writer.create(f"/log/seg{i}"))
            # Reader must observe every completed create immediately.
            listing = cluster.run_op(reader.readdir("/log"))
            assert f"seg{i}" in listing["entries"]
            assert len(listing["entries"]) == i + 1


class TestHeldPacketsStayValid:
    """A delivered packet is a value: whoever keeps a reference to one (a
    tap, a tracer, a fault schedule) reads what was delivered, for as long
    as the reference is held."""

    def test_every_delivered_packet_keeps_what_it_was_delivered_with(self, cluster, fs):
        held = []

        def fields(packet):
            header = packet.header
            return (
                packet.src, packet.dst, header,
                header and (header.op, header.fingerprint, header.seq, header.ret),
                packet.payload,
            )

        def keep(packet):
            held.append((packet, fields(packet)))
            return False

        for node in [server.node for server in cluster.servers] + [fs.node]:
            # Ahead of the server's own tap, which consumes unlock copies.
            own = node.tap
            node.tap = keep if own is None else (lambda p, own=own: keep(p) or own(p))
        cluster.run_op(fs.mkdir("/d"))
        for i in range(12):
            cluster.run_op(fs.create(f"/d/f{i}"))
        assert cluster.run_op(fs.statdir("/d"))["entry_count"] == 12
        for i in range(12):
            cluster.run_op(fs.delete(f"/d/f{i}"))
        cluster.run_op(fs.rmdir("/d"))
        assert len(held) > 50
        assert len({id(packet) for packet, _ in held}) == len(held)
        for packet, delivered in held:
            now = fields(packet)
            assert now == delivered
            # The header and payload are the same objects, not equal ones.
            assert now[2] is delivered[2] and now[4] is delivered[4]
