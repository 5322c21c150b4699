"""Behavioural tests for the four baseline server architectures.

Each server is driven end-to-end by a small closed-loop workload; the
assertions cover both functional correctness (every request completes,
byte counts add up) and the architecture-specific structure (threads,
selectors, pools) the paper distinguishes them by.
"""

import pytest

from repro.drivers.aio_backend import AioBackendServer
from repro.drivers.base import RequestState, default_op_rule
from repro.drivers.netty_backend import NettyBackendServer
from repro.drivers.threadbased import ThreadBasedServer
from repro.drivers.type1 import Type1AsyncServer
from repro.datastore.cluster import DatastoreCluster
from repro.messages import HttpRequest
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Endpoint
from repro.sim.params import CostParams
from repro.sim.rng import RngStreams
from repro.workload.closed_loop import ClosedLoopWorkload
from repro.workload.profiles import uniform_profile


class _Sink(Endpoint):
    """Puts every delivered message on a plain queue."""

    def __init__(self, queue):
        self.queue = queue

    def deliver(self, message):
        self.queue.put(message)


SERVER_CLASSES = [ThreadBasedServer, Type1AsyncServer, AioBackendServer,
                  NettyBackendServer]


def drive(server_cls, fanout=3, response_size=100, concurrency=4,
          until=0.5, seed=42, **server_kw):
    sim = Simulator()
    metrics = Metrics()
    params = CostParams()
    rng = RngStreams(seed)
    cluster = DatastoreCluster(sim, metrics, params, rng, n_shards=5)
    server = server_cls(sim, metrics, params, cluster, rng, **server_kw)
    server.start()
    profile = uniform_profile(fanout, response_size)
    workload = ClosedLoopWorkload(sim, metrics, params, server, profile,
                                  concurrency, rng)
    workload.start()
    sim.run(until=until)
    return sim, metrics, server


class TestRequestState:
    def test_absorb_counts_down(self):
        req = HttpRequest(fanout=3, response_size=100)
        state = RequestState(req, conn=None, now=0.0)
        assert not state.absorb(100, 0.1)
        assert not state.absorb(100, 0.2)
        assert state.absorb(100, 0.3)
        assert state.complete
        assert state.total_bytes == 300
        assert state.first_response_at == 0.1

    def test_over_absorb_rejected(self):
        req = HttpRequest(fanout=1, response_size=100)
        state = RequestState(req, conn=None, now=0.0)
        state.absorb(100, 0.1)
        with pytest.raises(RuntimeError):
            state.absorb(100, 0.2)


class TestOpRule:
    def test_paper_threshold(self):
        assert default_op_rule(100) == "get"
        assert default_op_rule(1024) == "get"
        assert default_op_rule(1025) == "scan"
        assert default_op_rule(20 * 1024) == "scan"


@pytest.mark.parametrize("server_cls", SERVER_CLASSES)
class TestAllServers:
    def test_completes_requests(self, server_cls):
        _sim, metrics, _server = drive(server_cls)
        assert metrics.raw_count("client.completed") > 10

    def test_every_fanout_query_answered(self, server_cls):
        _sim, metrics, _server = drive(server_cls, fanout=3)
        completed = metrics.raw_count("server.completed")
        responses = metrics.raw_count("server.fanout_responses")
        # Responses processed >= 3 per completed request (in-flight
        # requests may have partial counts).
        assert responses >= 3 * completed > 0

    def test_response_payload_accumulates(self, server_cls):
        sim = Simulator()
        metrics = Metrics()
        params = CostParams()
        rng = RngStreams(1)
        cluster = DatastoreCluster(sim, metrics, params, rng, n_shards=4)
        server = server_cls(sim, metrics, params, cluster, rng)
        server.start()
        conn = server.accept_client(0)
        from repro.sim.resources import Queue
        inbox = Queue(sim)
        conn.attach("a", _Sink(inbox))

        request = HttpRequest(fanout=4, response_size=250)

        def client():
            yield from conn.send(None, request, request.wire_size, to_side="b")
            response = yield inbox.get()
            return response

        p = sim.process(client())
        sim.run(until=2.0)
        assert p.ok
        assert p.value.payload_size == 4 * 250
        assert p.value.request_id == request.request_id

    def test_deterministic(self, server_cls):
        a = drive(server_cls, seed=5)[1].raw_count("client.completed")
        b = drive(server_cls, seed=5)[1].raw_count("client.completed")
        assert a == b


class TestArchitectureStructure:
    def test_threadbased_one_thread_per_connection(self):
        _sim, _m, server = drive(ThreadBasedServer, concurrency=7)
        assert server.worker_threads == 7
        assert server.selectors() == []

    def test_type1_uses_fixed_pool(self):
        _sim, metrics, server = drive(Type1AsyncServer)
        assert server.workers.worker_count == CostParams().type1_pool_size
        assert metrics.raw_count(
            f"pool.{server.workers.name}.completed") > 0
        assert len(server.selectors()) == 1

    def test_aio_spawns_and_reaps_workers(self):
        _sim, metrics, server = drive(AioBackendServer, until=1.0)
        assert metrics.raw_count(f"pool.{server.pool.name}.spawned") >= 1
        assert len(server.selectors()) == 2

    def test_netty_reactor_split(self):
        _sim, _m, server = drive(NettyBackendServer, backend_reactors=3)
        assert len(server.backend_selectors) == 3
        assert len(server.selectors()) == 4
        with pytest.raises(ValueError):
            drive(NettyBackendServer, backend_reactors=0)

    def test_netty_partitions_shards_across_backends(self):
        _sim, _m, server = drive(NettyBackendServer, backend_reactors=2)
        # Shard i lives on backend i mod 2: verify via channel contexts.
        assert len(server._downstream) == 5

    def test_threadbased_blocking_futex_overhead(self):
        """Thread-based servers pay the blocking-wake (lock) overhead
        the paper's Table 1 attributes to them."""
        _sim, metrics, _server = drive(ThreadBasedServer)
        assert metrics.cpu.busy_by_category["lock"] > 0

    def test_netty_pays_select_not_lock(self):
        _sim, metrics, _server = drive(NettyBackendServer)
        assert metrics.cpu.busy_by_category["select"] > 0
        assert metrics.cpu.busy_by_category.get("lock", 0.0) == 0.0
