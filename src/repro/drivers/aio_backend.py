"""Type-2b asynchronous driver: the AIO-based MongoDB backend.

Architecture of Figure 6 in the paper:

- a Netty-style **frontend reactor** thread handles upstream HTTP
  traffic and final assembly;
- fanout queries are written to downstream connections whose readiness
  is monitored by a **JVM-level reactor** thread (Java AIO);
- ready fanout responses are wrapped into tasks and processed by a
  JVM-level **on-demand worker pool** (spawn-as-needed, terminate when
  idle) — stage 5, the source of the unexpected multithreading
  overhead: with large responses (processing time proportional to
  payload) many workers run concurrently, paying lock contention on the
  task queue, thread-initiation CPU, and context switches (Table 1,
  Figure 7).

Completed requests are handed back to the frontend through its selector
wake-up path, as the real driver posts the completion callback to the
server's event loop.
"""

from __future__ import annotations

from typing import List

from ..messages import HttpRequest, QueryResponse
from ..sim.network import ChannelEndpoint, Connection
from ..sim.syscalls import Selector
from ..sim.threads import Mutex, OnDemandPool, SimThread, locked_section
from ..trace import K_PROCESS
from .base import AppServer, RequestState

__all__ = ["AioBackendServer"]


class AioBackendServer(AppServer):
    """Frontend reactor + JVM reactor + on-demand worker pool."""

    kind = "aio"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.frontend_selector = Selector(
            self.sim, self.cpu, self.metrics, self.params,
            name=f"{self.name}.frontend")
        self.jvm_selector = Selector(
            self.sim, self.cpu, self.metrics, self.params,
            name=f"{self.name}.jvm")
        self.pool = OnDemandPool(
            self.sim, self.cpu, self.metrics, self.params,
            name=f"{self.name}.jvmpool")
        self.frontend_thread = SimThread(self.cpu, name=f"{self.name}-frontend")
        self.jvm_thread = SimThread(self.cpu, name=f"{self.name}-jvm")
        self._downstream: List[Connection] = []
        #: Per-connection stream locks: concurrent pool workers decoding
        #: responses multiplexed on the same shard connection serialise
        #: here (a reactor design gets this serialisation for free).
        self._conn_locks: List[Mutex] = []

    def start(self) -> None:
        # One multiplexed connection per shard, monitored by the JVM
        # reactor (AIO registers the channels with the JVM's group).
        for shard_id in range(self.cluster.n_shards):
            conn = self.cluster.connect_shard(shard_id)
            channel = self.jvm_selector.open_channel("downstream", context=conn)
            conn.attach("a", ChannelEndpoint(channel))
            self._downstream.append(conn)
            self._conn_locks.append(Mutex(
                self.sim, self.cpu, self.metrics, self.params,
                name=f"{self.name}.conn{shard_id}"))
        self.sim.process(self._frontend_loop(), name=f"{self.name}-frontend")
        self.sim.process(self._jvm_loop(), name=f"{self.name}-jvm")

    def selectors(self):
        return [self.frontend_selector, self.jvm_selector]

    def accept_client(self, client: int) -> Connection:
        conn = Connection(self.sim, self.metrics, self.params)
        channel = self.frontend_selector.open_channel("upstream", context=conn)
        conn.attach("b", ChannelEndpoint(channel))
        return conn

    # -- frontend: upstream requests + final assembly ----------------------

    def _frontend_loop(self):
        thread = self.frontend_thread
        timeout = self.params.netty_select_timeout
        while True:
            batch = yield from self.frontend_selector.select(thread, timeout)
            for channel, message in batch:
                if channel.kind == "upstream":
                    yield from self._handle_request(thread, channel, message)
                elif channel.kind == "task":
                    # A completed request posted by a pool worker.
                    yield from self.finish_request(thread, message)
                else:
                    raise RuntimeError(f"unexpected event {channel.kind}")

    def _handle_request(self, thread: SimThread, channel, message) -> None:
        if not isinstance(message, HttpRequest):
            raise TypeError(f"unexpected upstream message: {message!r}")
        yield from self.parse_request(thread, message)
        state = self.new_request_state(message, channel.context)
        for query in self.build_queries(message, context=state):
            yield thread.execute(self.params.fanout_send_cost, "app")
            conn, replica = self.route_initial(
                query, self._downstream[query.shard_id])
            yield from conn.send(thread, query, query.wire_size, to_side="b")
            self.arm_subquery(state, query, conn, replica)

    # -- JVM reactor: wrap ready responses into pool tasks ---------------------

    def _jvm_loop(self):
        thread = self.jvm_thread
        while True:
            # AIO's group selector blocks until readiness (no poll loop).
            batch = yield from self.jvm_selector.select(thread, timeout=None)
            for _channel, message in batch:
                if not isinstance(message, QueryResponse):
                    raise TypeError(f"unexpected downstream message: {message!r}")
                if not self.response_is_fresh(message.context, message):
                    # Stale duplicate (hedge loser / late straggler):
                    # drop it before spawning a pool worker for it.
                    continue
                yield from self.pool.submit(thread, self._make_task(message))

    def _make_task(self, response: QueryResponse):
        def task(worker: SimThread):
            # Allocate the response buffer from the shared pool, then
            # read/decode from the multiplexed connection under its
            # stream lock; only the tail of the processing is lock-free.
            tracer = self.sim.tracer
            trace = tracer.trace_of(response) if tracer is not None else None
            started = self.sim.now
            yield from self.allocate_buffer(worker, response.payload_size)
            total = self.params.response_process_cost(response.payload_size)
            locked_part = total * self.params.decode_lock_fraction
            conn_lock = self._conn_locks[response.shard_id]
            yield from locked_section(worker, conn_lock, locked_part, "app")
            self._fanout_responses.add()
            yield worker.execute(total - locked_part, "app")
            if trace is not None:
                # Lock waits and preemption inside the span surface as
                # cpu_queue: (end - start) - work.
                trace.add(K_PROCESS, started, self.sim.now,
                          seq=response.seq, attempt=response.attempt,
                          work=total, shard=response.shard_id,
                          replica=response.replica)
            state: RequestState = response.context
            if state.absorb(response.payload_size, self.sim.now, response):
                yield from self.frontend_selector.post(worker, state)
        return task
