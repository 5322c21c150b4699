"""Unit tests for connections and endpoints."""

import pytest

from repro.sim.cpu import Cpu
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Connection, Endpoint, InboxEndpoint
from repro.sim.params import CostParams
from repro.sim.resources import Queue
from repro.sim.threads import SimThread


class _Sink(Endpoint):
    """Puts every delivered message on a plain queue."""

    def __init__(self, queue):
        self.queue = queue

    def deliver(self, message):
        self.queue.put(message)


@pytest.fixture
def env():
    sim = Simulator()
    metrics = Metrics()
    params = CostParams().with_overrides(app_cores=1)
    cpu = Cpu(sim, metrics, params)
    return sim, metrics, params, cpu


class TestConnection:
    def test_delivery_latency_and_transfer(self, env):
        sim, metrics, params, cpu = env
        inbox = Queue(sim)
        conn = Connection(sim, metrics, params, latency=1e-3)
        conn.attach("b", _Sink(inbox))

        def proc():
            yield from conn.send(None, "hello", 125_000, to_side="b")
            msg = yield inbox.get()
            return (sim.now, msg)

        p = sim.process(proc())
        sim.run()
        when, msg = p.value
        assert msg == "hello"
        # 1 ms latency + 125 kB / 125 MB/s = 1 ms transfer.
        assert when == pytest.approx(2e-3)

    def test_send_charges_syscall(self, env):
        sim, metrics, params, cpu = env
        thread = SimThread(cpu)
        inbox = Queue(sim)
        conn = Connection(sim, metrics, params)
        conn.attach("b", _Sink(inbox))

        def proc():
            yield from conn.send(thread, "x", 10, to_side="b")

        sim.process(proc())
        sim.run()
        assert metrics.cpu.busy_by_category["syscall"] == pytest.approx(
            params.send_syscall_cost)

    def test_send_without_thread_is_free(self, env):
        sim, metrics, params, cpu = env
        inbox = Queue(sim)
        conn = Connection(sim, metrics, params)
        conn.attach("b", _Sink(inbox))

        def proc():
            yield from conn.send(None, "x", 10, to_side="b")

        sim.process(proc())
        sim.run()
        assert metrics.cpu.busy_by_category.get("syscall", 0.0) == 0.0

    def test_unattached_side_rejected(self, env):
        sim, metrics, params, _cpu = env
        conn = Connection(sim, metrics, params)

        def proc():
            yield from conn.send(None, "x", 10, to_side="a")

        sim.process(proc())
        with pytest.raises(RuntimeError, match="not attached"):
            sim.run()

    def test_bad_side_name_rejected(self, env):
        sim, metrics, params, _cpu = env
        conn = Connection(sim, metrics, params)
        with pytest.raises(ValueError):
            conn.attach("c", _Sink(Queue(sim)))

    def test_bidirectional(self, env):
        sim, metrics, params, _cpu = env
        qa, qb = Queue(sim), Queue(sim)
        conn = Connection(sim, metrics, params)
        conn.attach("a", _Sink(qa))
        conn.attach("b", _Sink(qb))

        def proc():
            yield from conn.send(None, "to-b", 10, to_side="b")
            yield from conn.send(None, "to-a", 10, to_side="a")
            got_b = yield qb.get()
            got_a = yield qa.get()
            return (got_a, got_b)

        p = sim.process(proc())
        sim.run()
        assert p.value == ("to-a", "to-b")

    def test_message_counters(self, env):
        sim, metrics, params, _cpu = env
        inbox = Queue(sim)
        conn = Connection(sim, metrics, params)
        conn.attach("b", _Sink(inbox))

        def proc():
            yield from conn.send(None, "x", 100, to_side="b")
            yield from conn.send(None, "y", 200, to_side="b")

        sim.process(proc())
        sim.run()
        assert metrics.raw_count("net.messages") == 2
        assert metrics.raw_count("net.bytes") == 300

    def test_in_order_delivery(self, env):
        sim, metrics, params, _cpu = env
        inbox = Queue(sim)
        conn = Connection(sim, metrics, params)
        conn.attach("b", _Sink(inbox))

        def proc():
            for i in range(5):
                yield from conn.send(None, i, 10, to_side="b")
            got = []
            for _ in range(5):
                got.append((yield inbox.get()))
            return got

        p = sim.process(proc())
        sim.run()
        assert p.value == [0, 1, 2, 3, 4]


class TestInboxEndpoint:
    def test_recv_returns_message_and_charges(self, env):
        sim, metrics, params, cpu = env
        thread = SimThread(cpu)
        inbox = InboxEndpoint(sim, cpu, params)
        inbox.deliver("msg")

        def proc():
            msg = yield from inbox.recv(thread)
            return msg

        p = sim.process(proc())
        sim.run()
        assert p.value == "msg"
        assert metrics.cpu.busy_by_category["syscall"] == pytest.approx(
            params.recv_syscall_cost)

    def test_blocking_recv_pays_wake_futex(self, env):
        sim, metrics, params, cpu = env
        thread = SimThread(cpu)
        inbox = InboxEndpoint(sim, cpu, params)

        def producer():
            yield sim.timeout(0.01)
            inbox.deliver("late")

        def proc():
            msg = yield from inbox.recv(thread)
            return msg

        p = sim.process(proc())
        sim.process(producer())
        sim.run()
        assert p.value == "late"
        assert metrics.cpu.busy_by_category["lock"] == pytest.approx(
            params.futex_cost)
        assert metrics.raw_count("net.blocking_recv_wakes") == 1

    def test_nonblocking_recv_skips_futex(self, env):
        sim, metrics, params, cpu = env
        thread = SimThread(cpu)
        inbox = InboxEndpoint(sim, cpu, params)
        inbox.deliver("ready")

        def proc():
            return (yield from inbox.recv(thread))

        sim.process(proc())
        sim.run()
        assert metrics.cpu.busy_by_category.get("lock", 0.0) == 0.0
