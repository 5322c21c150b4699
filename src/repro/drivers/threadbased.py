"""The thread-based server: one-thread-per-connection, synchronous RPC.

This is the baseline every figure in the paper compares against
(XXX-sync / "Threadbased").  Each upstream connection gets a dedicated
worker thread that blocks on the connection, issues the fanout queries
one at a time over the synchronous connection pool, and assembles the
reply — so workload concurrency N means N threads contending for the
app server's cores and the driver's pool lock, the multithreading
overhead of Table 1 (35.3% mutex CPU at concurrency 100 in the paper).
"""

from __future__ import annotations

from ..messages import HttpRequest
from ..sim.network import Connection, InboxEndpoint
from ..sim.threads import SimThread
from .base import AppServer
from .conn_pool import SyncConnectionPool

__all__ = ["ThreadBasedServer"]


class ThreadBasedServer(AppServer):
    """One dedicated worker thread per upstream connection."""

    kind = "threadbased"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pool = SyncConnectionPool(
            self.sim, self.cpu, self.metrics, self.params, self.cluster,
            name=f"{self.name}.connpool", resilience=self.resilience)
        self.worker_threads = 0

    def start(self) -> None:
        """Nothing to launch: workers spawn per accepted connection."""

    def accept_client(self, client: int) -> Connection:
        conn = Connection(self.sim, self.metrics, self.params)
        inbox = InboxEndpoint(self.sim, self.cpu, self.params)
        conn.attach("b", inbox)
        self.worker_threads += 1
        thread = SimThread(self.cpu, name=f"{self.name}-conn-{client}")
        self.sim.process(self._conn_loop(thread, conn, inbox), name=thread.name)
        return conn

    def _conn_loop(self, thread: SimThread, conn: Connection,
                   inbox: InboxEndpoint):
        while True:
            request = yield from inbox.recv(thread)
            if not isinstance(request, HttpRequest):
                raise TypeError(f"unexpected upstream message: {request!r}")
            yield from self.parse_request(thread, request)
            state = self.new_request_state(request, conn)
            queries = self.build_queries(request, context=state)
            for query in queries:
                response = yield from self.pool.sync_query(thread, query)
                yield from self.allocate_buffer(thread, response.payload_size)
                yield from self.process_response_cpu(
                    thread, response.payload_size, response=response)
                state.absorb(response.payload_size, self.sim.now, response)
            yield from self.finish_request(thread, state)
