"""Consistent-hash ring: placement, balance, minimal remapping."""

import pytest

from repro.cluster.ring import DEFAULT_VNODES, HashRing, stable_hash
from repro.errors import ClusterError

KEYS = [f"GET /rubis/view_item?item={i}" for i in range(500)]


class TestStableHash:
    def test_deterministic_across_instances(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")

    def test_32_bit_range(self):
        for key in KEYS[:50]:
            assert 0 <= stable_hash(key) < 2**32


class TestPlacement:
    def test_single_node_owns_everything(self):
        ring = HashRing(["a"])
        assert all(ring.node_for(key) == "a" for key in KEYS)

    def test_placement_is_deterministic(self):
        one = HashRing(["a", "b", "c"])
        two = HashRing(["c", "a", "b"])  # insertion order must not matter
        assert [one.node_for(k) for k in KEYS] == [two.node_for(k) for k in KEYS]

    def test_every_node_gets_a_share(self):
        ring = HashRing(["a", "b", "c", "d"])
        spread = ring.spread(KEYS)
        assert set(spread) == {"a", "b", "c", "d"}
        assert all(count > 0 for count in spread.values())

    def test_balance_within_reason(self):
        ring = HashRing(["a", "b", "c", "d"])
        spread = ring.spread(KEYS)
        mean = len(KEYS) / 4
        for count in spread.values():
            assert count > 0.4 * mean, spread
            assert count < 2.0 * mean, spread

    def test_more_vnodes_smooths_balance(self):
        coarse = HashRing(["a", "b", "c", "d"], vnodes=2)
        fine = HashRing(["a", "b", "c", "d"], vnodes=256)

        def skew(ring):
            spread = ring.spread(KEYS)
            return max(spread.values()) - min(spread.values())

        assert skew(fine) <= skew(coarse)


class TestRemapping:
    def test_add_node_remaps_only_to_new_node(self):
        ring = HashRing(["a", "b", "c"])
        before = {key: ring.node_for(key) for key in KEYS}
        ring.add_node("d")
        moved = 0
        for key in KEYS:
            after = ring.node_for(key)
            if after != before[key]:
                moved += 1
                assert after == "d"  # keys only move to the newcomer
        assert 0 < moved < len(KEYS) / 2  # ~1/4 expected, never a reshuffle

    def test_remove_node_remaps_only_its_keys(self):
        ring = HashRing(["a", "b", "c", "d"])
        before = {key: ring.node_for(key) for key in KEYS}
        ring.remove_node("d")
        for key in KEYS:
            if before[key] != "d":
                assert ring.node_for(key) == before[key]
            else:
                assert ring.node_for(key) != "d"

    def test_add_then_remove_restores_placement(self):
        ring = HashRing(["a", "b"])
        before = {key: ring.node_for(key) for key in KEYS}
        ring.add_node("c")
        ring.remove_node("c")
        assert {key: ring.node_for(key) for key in KEYS} == before


class TestReplicaSets:
    """Successor-walk property tests (the order failover follows)."""

    def test_primary_matches_node_for(self):
        ring = HashRing(["a", "b", "c", "d", "e"])
        for key in KEYS:
            assert ring.nodes_for(key, 3)[0] == ring.node_for(key)

    def test_replicas_are_distinct_physical_nodes(self):
        # Replica sets must never collapse onto one physical node while
        # the ring has more nodes than the replication factor, no matter
        # how vnode points interleave.
        for vnodes in (1, 2, 8, DEFAULT_VNODES):
            ring = HashRing(["a", "b", "c", "d", "e"], vnodes=vnodes)
            for r in (2, 3, 4):
                for key in KEYS:
                    replicas = ring.nodes_for(key, r)
                    assert len(replicas) == r
                    assert len(set(replicas)) == r, (vnodes, r, replicas)

    def test_small_ring_degrades_to_all_nodes(self):
        ring = HashRing(["a", "b"])
        for key in KEYS[:50]:
            replicas = ring.nodes_for(key, 3)
            assert sorted(replicas) == ["a", "b"]

    def test_replica_sets_deterministic(self):
        one = HashRing(["a", "b", "c", "d"])
        two = HashRing(["d", "c", "b", "a"])
        assert [one.nodes_for(k, 2) for k in KEYS] == [
            two.nodes_for(k, 2) for k in KEYS
        ]

    def test_join_moves_minimal_replica_fraction(self):
        # With R=2 on n nodes, a joining node should enter ~2/(n+1) of
        # the replica sets; every other set must be untouched, and a
        # changed set may differ from the old one only by the newcomer
        # (successor placement: the walk is identical except where the
        # new node's points intercept it).
        ring = HashRing(["a", "b", "c", "d", "e"])
        before = {key: ring.nodes_for(key, 2) for key in KEYS}
        ring.add_node("f")
        changed = 0
        for key in KEYS:
            after = ring.nodes_for(key, 2)
            if after == before[key]:
                continue
            changed += 1
            assert "f" in after, (before[key], after)
            assert set(after) - {"f"} <= set(before[key]), (before[key], after)
        expected = 2 / 6  # R/(n+1) of sets gain the newcomer, in expectation
        assert changed < len(KEYS) * expected * 2.0
        assert changed > len(KEYS) * expected * 0.3

    def test_leave_moves_minimal_replica_fraction(self):
        ring = HashRing(["a", "b", "c", "d", "e"])
        before = {key: ring.nodes_for(key, 2) for key in KEYS}
        ring.remove_node("e")
        for key in KEYS:
            after = ring.nodes_for(key, 2)
            if "e" not in before[key]:
                # Sets not involving the leaver are bit-for-bit stable.
                assert after == before[key]
            else:
                # The survivor keeps its slot; only the leaver's slot
                # is refilled by the next distinct successor.
                survivors = [n for n in before[key] if n != "e"]
                assert set(survivors) <= set(after)
                assert "e" not in after

    def test_nonpositive_replica_count_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ClusterError, match="at least one"):
            ring.nodes_for("key", 0)


class TestErrors:
    def test_empty_ring_raises_cluster_error(self):
        ring = HashRing()
        with pytest.raises(ClusterError, match="empty"):
            ring.node_for("anything")

    def test_fully_drained_ring_raises_cluster_error(self):
        ring = HashRing(["only"])
        ring.remove_node("only")
        with pytest.raises(ClusterError):
            ring.node_for("anything")

    def test_duplicate_node_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ClusterError, match="already"):
            ring.add_node("a")

    def test_removing_unknown_node_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ClusterError, match="not on the ring"):
            ring.remove_node("b")

    def test_nonpositive_vnodes_rejected(self):
        with pytest.raises(ClusterError):
            HashRing(["a"], vnodes=0)

    def test_membership_introspection(self):
        ring = HashRing(["b", "a"], vnodes=DEFAULT_VNODES)
        assert ring.nodes == ["a", "b"]
        assert len(ring) == 2
        assert "a" in ring and "z" not in ring
