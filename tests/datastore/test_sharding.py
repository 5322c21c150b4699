"""Unit tests for partitioning, fanout shard selection, rack placement,
and replica routing."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.datastore.sharding import (HashPartitioner, REPLICA_POLICIES,
                                      ReplicaSelector, pick_fanout_shards,
                                      rack_of)


class TestHashPartitioner:
    def test_stable_assignment(self):
        p = HashPartitioner(20)
        assert p.shard_for("user42") == p.shard_for("user42")

    def test_in_range(self):
        p = HashPartitioner(7)
        for i in range(200):
            assert 0 <= p.shard_for(f"key{i}") < 7

    def test_split_partitions_everything(self):
        p = HashPartitioner(5)
        keys = [f"key{i}" for i in range(100)]
        buckets = p.split(keys)
        assert sum(len(b) for b in buckets) == 100
        for shard_id, bucket in enumerate(buckets):
            for key in bucket:
                assert p.shard_for(key) == shard_id

    def test_roughly_balanced(self):
        p = HashPartitioner(10)
        buckets = p.split([f"key{i}" for i in range(10_000)])
        sizes = [len(b) for b in buckets]
        assert min(sizes) > 700  # each shard ~1000 +- a few hundred
        assert max(sizes) < 1300

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestPickFanoutShards:
    def test_distinct_shards(self):
        rng = random.Random(3)
        shards = pick_fanout_shards(rng, 20, 5)
        assert len(shards) == len(set(shards)) == 5

    def test_full_fanout_covers_all(self):
        rng = random.Random(3)
        assert sorted(pick_fanout_shards(rng, 20, 20)) == list(range(20))

    def test_bounds_checked(self):
        rng = random.Random(3)
        with pytest.raises(ValueError):
            pick_fanout_shards(rng, 20, 21)
        with pytest.raises(ValueError):
            pick_fanout_shards(rng, 20, 0)


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=2**32),
       st.data())
def test_fanout_selection_properties(n_shards, seed, data):
    """Property: any legal fanout yields that many distinct in-range
    shards."""
    fanout = data.draw(st.integers(min_value=1, max_value=n_shards))
    rng = random.Random(seed)
    shards = pick_fanout_shards(rng, n_shards, fanout)
    assert len(shards) == fanout
    assert len(set(shards)) == fanout
    assert all(0 <= s < n_shards for s in shards)


@given(st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=100),
       st.integers(min_value=1, max_value=16))
def test_partitioner_split_is_a_partition(keys, n_shards):
    """Property: split() is a true partition of the input multiset."""
    p = HashPartitioner(n_shards)
    buckets = p.split(keys)
    flattened = [k for bucket in buckets for k in bucket]
    assert sorted(flattened) == sorted(keys)


class TestRackOf:
    def test_anti_affinity_spans_racks(self):
        # A 2-replica shard always spans both of 2 racks.
        for shard in range(20):
            racks = {rack_of(shard, r, 2) for r in range(2)}
            assert racks == {0, 1}

    def test_in_range_and_deterministic(self):
        for shard in range(10):
            for replica in range(4):
                rack = rack_of(shard, replica, 3)
                assert 0 <= rack < 3
                assert rack == rack_of(shard, replica, 3)

    def test_rejects_zero_racks(self):
        with pytest.raises(ValueError):
            rack_of(0, 0, 0)


@dataclass
class _Resp:
    shard_id: int
    replica: int
    failed: bool = False
    sent_at: float = 0.0


class TestReplicaSelector:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaSelector("nope", 2)
        with pytest.raises(ValueError):
            ReplicaSelector("primary", 0)
        with pytest.raises(ValueError):
            ReplicaSelector("random", 2)  # needs an rng

    def test_single_replica_every_policy_is_noop(self):
        for policy in REPLICA_POLICIES:
            rng = (random.Random(7)
                   if policy in ("random", "ewma") else None)
            selector = ReplicaSelector(policy, 1, rng=rng)
            assert [selector.pick(3) for _ in range(4)] == [0, 0, 0, 0]
            assert selector.alternate(3, avoid=0) == 0

    def test_primary_ignores_replicas(self):
        selector = ReplicaSelector("primary", 3)
        assert [selector.pick(0) for _ in range(5)] == [0] * 5

    def test_round_robin_cycles_per_shard(self):
        selector = ReplicaSelector("round_robin", 3)
        assert [selector.pick(0) for _ in range(6)] == [0, 1, 2, 0, 1, 2]
        # A different shard has its own cursor.
        assert selector.pick(1) == 0

    def test_random_is_seed_deterministic(self):
        a = ReplicaSelector("random", 4, rng=random.Random(99))
        b = ReplicaSelector("random", 4, rng=random.Random(99))
        assert [a.pick(0) for _ in range(20)] == [b.pick(0) for _ in range(20)]

    def test_least_outstanding_balances_and_tie_breaks_low(self):
        selector = ReplicaSelector("least_outstanding", 3)
        # All tied at 0: lowest index wins, then counts force rotation.
        assert [selector.pick(5) for _ in range(3)] == [0, 1, 2]
        assert selector.outstanding(5) == [1, 1, 1]
        # Retire replica 1's query: it is now least-loaded.
        selector.note_response(_Resp(shard_id=5, replica=1))
        assert selector.pick(5) == 1

    def test_least_outstanding_ignores_synthesised_failures(self):
        selector = ReplicaSelector("least_outstanding", 2)
        assert selector.pick(0) == 0
        selector.note_response(_Resp(shard_id=0, replica=0, failed=True))
        # The failure never decremented: replica 0 still looks loaded.
        assert selector.outstanding(0) == [1, 0]
        assert selector.pick(0) == 1

    def test_alternate_avoids_and_rotates(self):
        selector = ReplicaSelector("round_robin", 3)
        picks = [selector.alternate(2, avoid=0) for _ in range(4)]
        assert 0 not in picks
        assert picks == [1, 2, 1, 2]  # shared cursor spreads hedges

    def test_alternate_two_replicas_always_other(self):
        selector = ReplicaSelector("round_robin", 2)
        assert selector.alternate(0, avoid=0) == 1
        assert selector.alternate(0, avoid=1) == 0

    def test_alternate_least_outstanding_prefers_idle(self):
        selector = ReplicaSelector("least_outstanding", 3)
        for _ in range(3):
            selector.pick(0)  # counts now [1, 1, 1]
        selector.note_response(_Resp(shard_id=0, replica=2))
        assert selector.alternate(0, avoid=0) == 2


class TestEwmaSelector:
    def _respond(self, selector, replica, sent_at, now):
        selector.note_response(
            _Resp(shard_id=0, replica=replica, sent_at=sent_at), now=now)

    def test_learns_the_fast_replica(self):
        selector = ReplicaSelector("ewma", 2, rng=random.Random(4))
        # Replica 0 answers in 1 ms, replica 1 in 5 ms.
        for _ in range(10):
            self._respond(selector, 0, sent_at=1.0, now=1.001)
            self._respond(selector, 1, sent_at=1.0, now=1.005)
        assert [selector.pick(0) for _ in range(10)] == [0] * 10
        fast, slow = selector.latency_score(0)
        assert fast == pytest.approx(0.001)
        assert slow == pytest.approx(0.005)

    def test_adapts_when_the_fast_replica_degrades(self):
        selector = ReplicaSelector("ewma", 2, rng=random.Random(4))
        self._respond(selector, 0, sent_at=1.0, now=1.001)
        self._respond(selector, 1, sent_at=1.0, now=1.002)
        assert selector.pick(0) == 0
        # Replica 0 starts answering in 50 ms: a handful of
        # observations push its EWMA past replica 1's.
        for _ in range(5):
            self._respond(selector, 0, sent_at=2.0, now=2.050)
        assert selector.pick(0) == 1

    def test_unsampled_replicas_explored_first(self):
        # Replica 1 has a score, replica 0 and 2 are unsampled (0.0):
        # the unsampled pair ties at the minimum and wins exploration.
        selector = ReplicaSelector("ewma", 3, rng=random.Random(4))
        self._respond(selector, 1, sent_at=1.0, now=1.001)
        for _ in range(20):
            assert selector.pick(0) in (0, 2)

    def test_tie_break_is_seed_deterministic(self):
        a = ReplicaSelector("ewma", 4, rng=random.Random(99))
        b = ReplicaSelector("ewma", 4, rng=random.Random(99))
        assert [a.pick(0) for _ in range(20)] == \
               [b.pick(0) for _ in range(20)]

    def test_failed_responses_never_update(self):
        selector = ReplicaSelector("ewma", 2, rng=random.Random(4))
        selector.note_response(
            _Resp(shard_id=0, replica=0, sent_at=1.0, failed=True), now=2.0)
        assert selector.latency_score(0) == [0.0, 0.0]

    def test_unstamped_responses_never_update(self):
        selector = ReplicaSelector("ewma", 2, rng=random.Random(4))
        # No sent_at stamp (0.0) and a non-causal stamp are both inert.
        self._respond(selector, 0, sent_at=0.0, now=2.0)
        self._respond(selector, 0, sent_at=3.0, now=2.0)
        assert selector.latency_score(0) == [0.0, 0.0]

    def test_alternate_avoids_last_target(self):
        selector = ReplicaSelector("ewma", 2, rng=random.Random(4))
        # Replica 0 is far cheaper, but a retry of a send to 0 must go
        # elsewhere.
        self._respond(selector, 0, sent_at=1.0, now=1.001)
        self._respond(selector, 1, sent_at=1.0, now=1.050)
        assert selector.alternate(0, avoid=0) == 1

    def test_ewma_smoothing_matches_alpha(self):
        selector = ReplicaSelector("ewma", 2, rng=random.Random(4))
        self._respond(selector, 0, sent_at=1.0, now=1.010)  # first = raw
        self._respond(selector, 0, sent_at=2.0, now=2.020)
        alpha = ReplicaSelector.EWMA_ALPHA
        expected = 0.010 + alpha * (0.020 - 0.010)
        assert selector.latency_score(0)[0] == pytest.approx(expected)
