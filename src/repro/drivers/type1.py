"""Type-1 asynchronous driver: async facade over a worker-thread pool.

This is the architecture of the DynamoDB and HBase "asynchronous"
drivers (Section 2.1, Table 4): the server's main (reactor) thread is
event-driven, but each asynchronous query API call is delegated to a
worker in a *pre-defined* thread pool, and each worker still performs
a synchronous RPC.  The result (Figure 4) is the same multithreading
overhead as the thread-based design once workload concurrency is high:
concurrency N with fanout F keeps up to N*F synchronous calls in
flight, all funnelled through the pool's task-queue lock and the
connection-pool lock.
"""

from __future__ import annotations

from ..messages import HttpRequest, Query
from ..sim.network import ChannelEndpoint, Connection
from ..sim.syscalls import Selector
from ..sim.threads import FixedPool, SimThread
from .base import AppServer, RequestState
from .conn_pool import SyncConnectionPool

__all__ = ["Type1AsyncServer"]


class Type1AsyncServer(AppServer):
    """Event-driven frontend + pre-defined sync-RPC worker pool."""

    kind = "type1-async"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.workers = FixedPool(
            self.sim, self.cpu, self.metrics, self.params,
            self.params.type1_pool_size, name=f"{self.name}.workers")
        self.conn_pool = SyncConnectionPool(
            self.sim, self.cpu, self.metrics, self.params, self.cluster,
            name=f"{self.name}.connpool", resilience=self.resilience)
        self.frontend_selector = Selector(
            self.sim, self.cpu, self.metrics, self.params,
            name=f"{self.name}.frontend")
        self.frontend_thread = SimThread(self.cpu, name=f"{self.name}-frontend")

    def start(self) -> None:
        self.sim.process(self._frontend_loop(), name=f"{self.name}-frontend")

    def selectors(self):
        return [self.frontend_selector]

    def accept_client(self, client: int) -> Connection:
        conn = Connection(self.sim, self.metrics, self.params)
        channel = self.frontend_selector.open_channel("upstream", context=conn)
        conn.attach("b", ChannelEndpoint(channel))
        return conn

    def _frontend_loop(self):
        thread = self.frontend_thread
        timeout = self.params.netty_select_timeout
        while True:
            batch = yield from self.frontend_selector.select(thread, timeout)
            for channel, message in batch:
                if channel.kind != "upstream":
                    raise RuntimeError(f"unexpected event {channel.kind}")
                if not isinstance(message, HttpRequest):
                    raise TypeError(f"unexpected upstream message: {message!r}")
                yield from self.parse_request(thread, message)
                state = self.new_request_state(message, channel.context)
                for query in self.build_queries(message, context=state):
                    # The "asynchronous" API call: hand the query to a
                    # pool worker and return immediately.
                    yield from self.workers.submit(
                        thread, self._make_task(query, state))

    def _make_task(self, query: Query, state: RequestState):
        def task(worker: SimThread):
            response = yield from self.conn_pool.sync_query(worker, query)
            yield from self.allocate_buffer(worker, response.payload_size)
            yield from self.process_response_cpu(
                worker, response.payload_size, response=response)
            if state.absorb(response.payload_size, self.sim.now, response):
                yield from self.finish_request(worker, state)
        return task
