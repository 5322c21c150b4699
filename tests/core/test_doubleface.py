"""Behavioural tests for the DoubleFaceAD server."""

import pytest

from repro.core.doubleface import DoubleFaceServer
from repro.core.handlers import EventHandler, FrontendHandler, TaskHandler
from repro.core.scheduling import FifoScheduler
from repro.datastore.cluster import DatastoreCluster
from repro.messages import HttpRequest
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.params import CostParams
from repro.sim.rng import RngStreams
from repro.workload.closed_loop import ClosedLoopWorkload
from repro.workload.profiles import uniform_profile


def build(reactors=2, scheduler=None, business_logic=None, seed=42,
          n_shards=5, **overrides):
    sim = Simulator()
    metrics = Metrics()
    params = CostParams().with_overrides(**overrides)
    rng = RngStreams(seed)
    cluster = DatastoreCluster(sim, metrics, params, rng, n_shards=n_shards)
    server = DoubleFaceServer(sim, metrics, params, cluster, rng,
                              reactors=reactors, scheduler=scheduler,
                              business_logic=business_logic)
    return sim, metrics, params, rng, server


def drive(server, sim, metrics, params, rng, concurrency=6, until=0.5,
          fanout=3):
    server.start()
    profile = uniform_profile(fanout, 100)
    ClosedLoopWorkload(sim, metrics, params, server, profile,
                       concurrency, rng).start()
    sim.run(until=until)


class TestDoubleFaceServer:
    def test_completes_requests_single_reactor(self):
        sim, metrics, params, rng, server = build(reactors=1)
        drive(server, sim, metrics, params, rng)
        assert metrics.raw_count("client.completed") > 20

    def test_ncopy_distributes_upstream_connections(self):
        sim, metrics, params, rng, server = build(reactors=3)
        drive(server, sim, metrics, params, rng, concurrency=7)
        counts = [r.upstream_count for r in server.reactors]
        assert counts == [3, 2, 2]  # round-robin by client ordinal

    def test_reactor_follows_client_ordinal_not_accept_order(self):
        """Client k lands on reactor k mod N whenever it connects."""
        _sim, _metrics, _params, _rng, server = build(reactors=3)
        for client in (4, 0, 5, 2, 1, 3):
            conn = server.accept_client(client)
            assert (conn.endpoint_b.channel.selector
                    is server.reactors[client % 3].selector)
        assert [r.upstream_count for r in server.reactors] == [2, 2, 2]

    def test_each_reactor_has_private_downstream_conns(self):
        sim, metrics, params, rng, server = build(reactors=2, n_shards=4)
        server.start()
        assert all(len(r.downstream) == 4 for r in server.reactors)
        conns = {id(c) for r in server.reactors for c in r.downstream}
        assert len(conns) == 8  # no sharing across reactors

    def test_almost_no_context_switches_with_one_reactor_per_core(self):
        """The integrated design's headline property: reactor threads
        never hand work across threads.  (A handful of switches remain
        because the scheduler does not pin threads to cores.)"""
        sim, metrics, params, rng, server = build(reactors=2, app_cores=2)
        drive(server, sim, metrics, params, rng)
        completed = metrics.raw_count("client.completed")
        assert metrics.raw_count("cpu.app.ctx_switches") < 0.05 * completed
        assert metrics.cpu.busy_by_category.get("lock", 0.0) == 0.0

    def test_blocking_select_no_spurious(self):
        sim, metrics, params, rng, server = build(reactors=1)
        drive(server, sim, metrics, params, rng)
        stats = server.selectors()[0].stats()
        assert stats["spurious"] == 0

    def test_fifo_scheduler_accepted(self):
        sim, metrics, params, rng, server = build(scheduler=FifoScheduler())
        drive(server, sim, metrics, params, rng)
        assert metrics.raw_count("client.completed") > 20

    def test_rejects_zero_reactors(self):
        with pytest.raises(ValueError):
            build(reactors=0)

    def test_inflight_tracking_drains(self):
        sim, metrics, params, rng, server = build(reactors=1)
        drive(server, sim, metrics, params, rng, until=0.4)
        # Let in-flight work complete with no new requests: stop driving
        # by advancing a little; closed-loop users immediately re-issue,
        # so just bound the in-flight count instead.
        total_inflight = sum(len(r.inflight) for r in server.reactors)
        assert total_inflight <= 6


class TestPluggability:
    def test_business_logic_hook_runs(self):
        calls = []

        def logic(reactor, request):
            calls.append(request.request_id)
            yield reactor.thread.execute(1e-6)

        sim, metrics, params, rng, server = build(business_logic=logic)
        drive(server, sim, metrics, params, rng)
        assert len(calls) == metrics.raw_count("server.requests")

    def test_register_handler_replaces(self):
        sim, metrics, params, rng, server = build()

        class CountingHandler(FrontendHandler):
            def __init__(self):
                super().__init__()
                self.seen = 0

            def handle(self, reactor, channel, message):
                self.seen += 1
                yield from super().handle(reactor, channel, message)

        handler = CountingHandler()
        server.register_handler("upstream", handler)
        drive(server, sim, metrics, params, rng)
        assert handler.seen == metrics.raw_count("server.requests") > 0

    def test_register_handler_type_checked(self):
        _sim, _m, _p, _r, server = build()
        with pytest.raises(TypeError):
            server.register_handler("upstream", lambda *a: None)

    def test_task_events_run_callables(self):
        sim, metrics, params, rng, server = build(reactors=1)
        server.start()
        ran = []

        def task(reactor):
            ran.append(reactor.index)
            yield reactor.thread.execute(1e-6)

        def inject():
            yield from server.reactors[0].post(None, task)

        sim.process(inject())
        sim.run(until=0.1)
        assert ran == [0]

    def test_task_handler_rejects_non_callable(self):
        sim, metrics, params, rng, server = build(reactors=1)
        server.start()

        def inject():
            yield from server.reactors[0].post(None, "not callable")

        sim.process(inject())
        with pytest.raises(TypeError):
            sim.run(until=0.1)

    def test_unknown_channel_kind_rejected(self):
        _sim, _m, _p, _r, server = build()
        assert isinstance(server.handlers["task"], TaskHandler)
        assert isinstance(server.handlers["upstream"], EventHandler)
