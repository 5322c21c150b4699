"""Type-2a asynchronous driver: the Netty-based MongoDB backend.

Architecture of Figure 8 in the paper: one frontend reactor thread
manages upstream client connections; a *separate, statically sized*
group of backend reactor threads (default two, the driver's default)
manages the downstream datastore connections, each reactor looping over
event monitoring and event handling with a short poll timeout.

Because the two sides run independently with a fixed thread split, the
workload between them can be imbalanced (Section 4): whichever side is
under-loaded keeps re-entering ``select()`` and finding little or
nothing — the "spurious" selects of Table 3 — while the overloaded side
starves.  Completions cross from backend to frontend through the
frontend selector's wake-up path (Netty's ``eventLoop.execute``).
"""

from __future__ import annotations

from typing import List

from ..messages import HttpRequest, QueryResponse
from ..sim.network import ChannelEndpoint, Connection
from ..sim.syscalls import Selector
from ..sim.threads import SimThread
from .base import AppServer, RequestState

__all__ = ["NettyBackendServer"]


class NettyBackendServer(AppServer):
    """Frontend reactor + N independent backend reactors."""

    kind = "netty"

    def __init__(self, *args, backend_reactors: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if backend_reactors < 1:
            raise ValueError("need at least one backend reactor")
        self.backend_reactor_count = backend_reactors
        self.frontend_selector = Selector(
            self.sim, self.cpu, self.metrics, self.params,
            name=f"{self.name}.frontend")
        self.backend_selectors: List[Selector] = [
            Selector(self.sim, self.cpu, self.metrics, self.params,
                     name=f"{self.name}.backend{i}")
            for i in range(backend_reactors)
        ]
        self.frontend_thread = SimThread(self.cpu, name=f"{self.name}-frontend")
        self.backend_threads = [
            SimThread(self.cpu, name=f"{self.name}-backend-{i}")
            for i in range(backend_reactors)
        ]
        self._downstream: List[Connection] = []

    def start(self) -> None:
        # One connection per shard; shard i is registered with backend
        # reactor i mod N (Netty assigns channels to loops round-robin).
        for shard_id in range(self.cluster.n_shards):
            selector = self.backend_selectors[shard_id % self.backend_reactor_count]
            conn = self.cluster.connect_shard(shard_id)
            channel = selector.open_channel("downstream", context=conn)
            conn.attach("a", ChannelEndpoint(channel))
            self._downstream.append(conn)
        self.sim.process(self._frontend_loop(), name=f"{self.name}-frontend")
        for i, thread in enumerate(self.backend_threads):
            self.sim.process(self._backend_loop(i, thread), name=thread.name)

    def selectors(self):
        return [self.frontend_selector] + list(self.backend_selectors)

    def accept_client(self, client: int) -> Connection:
        conn = Connection(self.sim, self.metrics, self.params)
        channel = self.frontend_selector.open_channel("upstream", context=conn)
        conn.attach("b", ChannelEndpoint(channel))
        return conn

    # -- frontend --------------------------------------------------------

    def _frontend_loop(self):
        thread = self.frontend_thread
        timeout = self.params.netty_select_timeout
        while True:
            batch = yield from self.frontend_selector.select(thread, timeout)
            for channel, message in batch:
                if channel.kind == "upstream":
                    yield from self._handle_request(thread, channel, message)
                elif channel.kind == "task":
                    yield from self.finish_request(thread, message)
                else:
                    raise RuntimeError(f"unexpected event {channel.kind}")

    def _handle_request(self, thread: SimThread, channel, message):
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

    # -- backend reactors -------------------------------------------------

    def _backend_loop(self, index: int, thread: SimThread):
        selector = self.backend_selectors[index]
        timeout = self.params.netty_select_timeout
        while True:
            batch = yield from selector.select(thread, timeout)
            for _channel, message in batch:
                if not isinstance(message, QueryResponse):
                    raise TypeError(f"unexpected downstream message: {message!r}")
                state: RequestState = message.context
                if not self.response_is_fresh(state, message):
                    continue
                yield from self.process_response_cpu(
                    thread, message.payload_size, response=message)
                if state.absorb(message.payload_size, self.sim.now, message):
                    yield from self.frontend_selector.post(thread, state)
