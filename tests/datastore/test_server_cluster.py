"""Integration-flavoured tests for shard servers and the cluster."""

import types

import pytest

from repro.datastore.cluster import DatastoreCluster
from repro.datastore.records import RecordSchema
from repro.faults import HEDGE_ATTEMPT
from repro.messages import Query
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Endpoint
from repro.sim.params import CostParams
from repro.sim.resources import Queue
from repro.sim.rng import RngStreams


class _Sink(Endpoint):
    def __init__(self, queue):
        self.queue = queue

    def deliver(self, message):
        self.queue.put(message)


@pytest.fixture
def env():
    sim = Simulator()
    metrics = Metrics()
    params = CostParams()
    rng = RngStreams(42)
    return sim, metrics, params, rng


def make_cluster(env, **kw):
    sim, metrics, params, rng = env
    return DatastoreCluster(sim, metrics, params, rng, **kw)


def roundtrip(sim, cluster, shard_id, query):
    inbox = Queue(sim)
    conn = cluster.connect_shard(shard_id)
    conn.attach("a", _Sink(inbox))

    def proc():
        yield from conn.send(None, query, query.wire_size, to_side="b")
        response = yield inbox.get()
        return response

    p = sim.process(proc())
    sim.run(until=5.0)
    assert p.ok
    return p.value


class TestShardServer:
    def test_query_roundtrip(self, env):
        sim, metrics, _p, _r = env
        cluster = make_cluster(env, n_shards=3)
        q = Query(request_id=1, shard_id=1, op="get", response_size=100)
        resp = roundtrip(sim, cluster, 1, q)
        assert resp.request_id == 1
        assert resp.shard_id == 1
        assert resp.payload_size == 100
        assert resp.service_time > 0
        assert metrics.raw_count("datastore.queries") == 1

    def test_scan_takes_longer_on_average(self, env):
        sim, _m, _p, _r = env
        cluster = make_cluster(env, n_shards=1)
        shard = cluster.shards[0]
        gets = [shard.service_model.draw("get", 100) for _ in range(500)]
        scans = [shard.service_model.draw("scan", 20 * 1024)
                 for _ in range(500)]
        assert sum(scans) / len(scans) > 3 * sum(gets) / len(gets)

    def test_non_query_message_rejected(self, env):
        sim, _m, params, _r = env
        cluster = make_cluster(env, n_shards=1)
        conn = cluster.connect_shard(0)

        def proc():
            yield from conn.send(None, "garbage", 10, to_side="b")

        sim.process(proc())
        with pytest.raises(TypeError):
            sim.run(until=1.0)

    def test_materialised_get_returns_record(self, env):
        sim, _m, _p, _r = env
        schema = RecordSchema(field_count=2, field_size=8)
        cluster = make_cluster(env, n_shards=2, schema=schema)
        shard_id = cluster.partitioner.shard_for("mykey")
        cluster.shards[shard_id].store.put("mykey", b"payload")
        q = Query(request_id=2, shard_id=shard_id, op="get",
                  response_size=100, key="mykey")
        resp = roundtrip(sim, cluster, shard_id, q)
        assert resp.records == [("mykey", b"payload")]

    def test_unmaterialised_query_has_no_records(self, env):
        sim, _m, _p, _r = env
        cluster = make_cluster(env, n_shards=1)
        q = Query(request_id=3, shard_id=0, op="get", response_size=100,
                  key="whatever")
        resp = roundtrip(sim, cluster, 0, q)
        assert resp.records is None


class TestCluster:
    def test_shard_count_and_validation(self, env):
        cluster = make_cluster(env, n_shards=20)
        assert cluster.n_shards == 20
        with pytest.raises(ValueError):
            make_cluster(env, n_shards=0)

    def test_remote_cluster_has_higher_latency(self, env):
        local = make_cluster(env, n_shards=1, name="local")
        remote = make_cluster(env, n_shards=1, remote=True, name="remote")
        assert remote.connection_latency() > local.connection_latency()

    def test_shards_are_heterogeneous(self, env):
        cluster = make_cluster(env, n_shards=20)
        speeds = {shard.service_model.speed_factor
                  for shard in cluster.shards}
        assert len(speeds) > 10  # drawn from a continuous spread

    def test_large_shards_slower(self, env):
        small = make_cluster(env, n_shards=2, name="small")
        large = make_cluster(env, n_shards=2, large_shards=True, name="big")
        ratio = (large.shards[0].service_model.size_factor
                 / small.shards[0].service_model.size_factor)
        assert ratio == pytest.approx(CostParams().large_shard_factor)

    def test_load_distributes_by_hash(self, env):
        sim, _m, _p, _r = env
        cluster = make_cluster(env, n_shards=4)
        items = [(f"key{i}", b"x") for i in range(200)]
        count = cluster.load(items)
        assert count == 200
        assert cluster.total_records() == 200
        for key, _v in items:
            shard = cluster.partitioner.shard_for(key)
            assert cluster.shards[shard].store.get(key) == b"x"

    def test_deterministic_given_seed(self, env):
        sim, metrics, params, _rng = env
        a = DatastoreCluster(sim, metrics, params, RngStreams(9), n_shards=5)
        b = DatastoreCluster(sim, metrics, params, RngStreams(9), n_shards=5)
        assert [s.service_model.speed_factor for s in a.shards] == \
               [s.service_model.speed_factor for s in b.shards]


class TestCrossRackLatency:
    def test_default_is_flat(self, env):
        cluster = make_cluster(env, n_shards=4, replicas_per_shard=2,
                               racks=2)
        flat = cluster.connection_latency()
        for shard in range(4):
            for replica in range(2):
                assert cluster.connection_latency(shard, replica) == flat

    def test_penalty_applies_off_rack_only(self, env):
        # rack_of(shard, replica, 2) == (shard + replica) % 2 and the
        # app sits in rack 0: every shard has exactly one near replica.
        extra = 0.5e-3
        cluster = make_cluster(env, n_shards=4, replicas_per_shard=2,
                               racks=2, cross_rack_extra_latency=extra)
        base = CostParams().net_latency
        for shard in range(4):
            near = shard % 2  # replica whose rack is 0
            far = 1 - near
            assert cluster.connection_latency(shard, near) == base
            assert cluster.connection_latency(shard, far) == \
                pytest.approx(base + extra)

    def test_replica_index_wraps(self, env):
        extra = 1e-3
        cluster = make_cluster(env, n_shards=2, replicas_per_shard=2,
                               racks=2, cross_rack_extra_latency=extra)
        # Failover rotation can pass attempt counts beyond the set size.
        assert cluster.connection_latency(1, 3) == \
            cluster.connection_latency(1, 1)

    def test_flat_argless_form_unchanged(self, env):
        cluster = make_cluster(env, n_shards=2, replicas_per_shard=2,
                               racks=2, cross_rack_extra_latency=1e-3)
        assert cluster.connection_latency() == CostParams().net_latency

    def test_validation(self, env):
        with pytest.raises(ValueError):
            make_cluster(env, n_shards=2, cross_rack_extra_latency=-1.0)
        with pytest.raises(ValueError):
            make_cluster(env, n_shards=2,
                         cross_rack_extra_latency=float("nan"))


class TestReplicaConnection:
    def test_routed_send_and_hedge_share_one_connection(self, env,
                                                        monkeypatch):
        """A routed initial send and a hedge to the same replica, both
        answering on one endpoint, travel on one connection: the
        cluster keeps the single replica-connection cache."""
        from repro.drivers.threadbased import ThreadBasedServer
        from repro.faults import ResilienceConfig, ResiliencePolicy
        from repro.sim.network import Connection

        sim, metrics, params, rng = env
        cluster = make_cluster(env, n_shards=2, replicas_per_shard=2,
                               replica_policy="round_robin")
        policy = ResiliencePolicy(sim, metrics,
                                  ResilienceConfig(hedge_delay=1e-3), rng,
                                  cluster)
        server = ThreadBasedServer(sim, metrics, params, cluster, rng,
                                   resilience=policy)
        primary = cluster.connect_shard(0)
        primary.attach("a", _Sink(Queue(sim)))
        used = []
        transmit = Connection.transmit

        def spy(conn, message, size, to_side):
            if to_side == "b":  # requests only, not the shard's responses
                used.append((conn, getattr(message, "attempt", None)))
            transmit(conn, message, size, to_side)

        monkeypatch.setattr(Connection, "transmit", spy)

        def query(seq):
            return Query(request_id=1, shard_id=0, op="get",
                         response_size=100, seq=seq)

        # round_robin: the first pick is the primary, the second replica 1.
        assert server.route_initial(query(0), primary) == (primary, 0)
        routed, replica = server.route_initial(query(1), primary)
        assert replica == 1 and routed is not primary
        # The hedge of a sub-query sent to the primary goes to replica 1.
        state = types.SimpleNamespace(trace=None)
        policy.attach(state)
        policy.arm(state, query(2), primary, 0)
        sim.run(until=2e-3)
        hedges = [conn for conn, attempt in used if attempt == HEDGE_ATTEMPT]
        assert hedges == [routed]
