"""Unit tests for the epoch-versioned membership layer."""

import pytest

from repro.core.config import FSConfig
from repro.core.membership import (
    Membership,
    MembershipView,
    bootstrap_view,
    plan_scale_down,
    plan_scale_up,
)
from repro.core.schema import _file_hash, fingerprint_of


class TestBootstrapIdentity:
    """Epoch 0 must route bit-identically to the pre-membership code."""

    @pytest.mark.parametrize("num_servers", [1, 2, 4, 8])
    def test_dir_routing_matches_modulo(self, num_servers):
        config = FSConfig(num_servers=num_servers)
        view = bootstrap_view(config)
        for pid in range(1, 40):
            for name in ("a", "subdir", "x-9"):
                fp = fingerprint_of(pid, name)
                legacy = config.server_addr(fp % num_servers)
                assert view.dir_owner_by_fp(fp) == legacy

    @pytest.mark.parametrize("num_servers", [1, 3, 4])
    def test_file_routing_matches_legacy_hash(self, num_servers):
        config = FSConfig(num_servers=num_servers)
        view = bootstrap_view(config)
        for pid in range(1, 40):
            for name in ("f0", "data.bin", "tmp"):
                legacy = config.server_addr(_file_hash(pid, name) % num_servers)
                assert view.file_owner(pid, name) == legacy

    def test_shard_table_shape(self):
        config = FSConfig(num_servers=4, shards_per_server=8)
        view = bootstrap_view(config)
        assert view.num_shards == 32
        assert view.epoch == 0
        # Every server owns exactly shards_per_server shards at bootstrap.
        for addr in view.servers:
            assert view.shard_table.count(addr) == 8


class TestViewInvariants:
    def test_rejects_empty_servers_and_stray_owners(self):
        with pytest.raises(ValueError):
            MembershipView(0, [], ["s-0"])
        with pytest.raises(ValueError):
            MembershipView(0, ["s-0"], ["s-0", "ghost"])

    def test_others_is_precomputed_and_cached(self):
        view = MembershipView(0, ["a", "b", "c"], ["a", "b", "c"])
        first = view.others("b")
        assert first == ("a", "c")
        assert view.others("b") is first  # cached per (view, addr)

    def test_advance_builds_fresh_view_with_fresh_others(self):
        membership = Membership(MembershipView(0, ["a", "b"], ["a", "b"]))
        old = membership.current
        old_others = old.others("a")
        new = membership.advance(servers=["a", "b", "c"],
                                 shard_table=["a", "b"])
        assert new.epoch == 1
        assert membership.current is new
        assert old.others("a") is old_others  # old snapshot untouched
        assert new.others("a") == ("b", "c")

    def test_wire_roundtrip(self):
        view = MembershipView(3, ["a", "b"], ["b", "a", "b", "a"])
        clone = MembershipView.from_wire(view.to_wire())
        assert clone.epoch == 3
        assert clone.servers == view.servers
        assert clone.shard_table == view.shard_table

    def test_rename_coordinator_is_first_live_member(self):
        view = MembershipView(1, ["s-1", "s-2"], ["s-1", "s-2"])
        assert view.rename_coordinator == "s-1"


class TestScalePlans:
    def _view(self, n, sps=8):
        return bootstrap_view(FSConfig(num_servers=n, shards_per_server=sps))

    def test_scale_up_quota_and_minimal_movement(self):
        view = self._view(4)
        servers, table, moved = plan_scale_up(view, "server-4")
        assert servers == view.servers + ("server-4",)
        quota = view.num_shards // 5
        assert len(moved) == quota
        # Only the moved shards change owner; the rest are untouched.
        for shard in range(view.num_shards):
            if shard in moved:
                assert table[shard] == "server-4"
            else:
                assert table[shard] == view.shard_table[shard]

    def test_scale_up_is_deterministic(self):
        view = self._view(3)
        assert plan_scale_up(view, "x") == plan_scale_up(view, "x")

    def test_scale_up_rejects_existing_member(self):
        with pytest.raises(ValueError):
            plan_scale_up(self._view(2), "server-0")

    def test_scale_down_moves_exactly_the_departing_shards(self):
        view = self._view(4)
        departing = [s for s, owner in enumerate(view.shard_table) if owner == "server-2"]
        servers, table, moved = plan_scale_down(view, "server-2")
        assert "server-2" not in servers
        assert "server-2" not in table
        assert sorted(moved) == sorted(departing)
        for shard in range(view.num_shards):
            if shard not in departing:
                assert table[shard] == view.shard_table[shard]

    def test_scale_down_balances_survivors(self):
        view = self._view(3)
        _servers, table, _moved = plan_scale_down(view, "server-0")
        counts = [table.count(a) for a in ("server-1", "server-2")]
        assert max(counts) - min(counts) <= 1

    def test_scale_down_guards(self):
        view = self._view(2)
        with pytest.raises(ValueError):
            plan_scale_down(view, "not-a-member")
        with pytest.raises(ValueError):
            plan_scale_down(bootstrap_view(FSConfig(num_servers=1)), "server-0")

    def test_up_then_down_roundtrips_to_original_table(self):
        view = self._view(2)
        servers, table, _ = plan_scale_up(view, "server-2")
        grown = MembershipView(1, servers, table)
        _servers2, table2, moved2 = plan_scale_down(grown, "server-2")
        # Everything the joiner held moves back to survivors; table stays
        # valid (no references to the departed member).
        assert sorted(moved2) == [s for s, owner in enumerate(table) if owner == "server-2"]
        assert set(table2) <= {"server-0", "server-1"}
