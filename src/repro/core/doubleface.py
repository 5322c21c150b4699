"""DoubleFaceAD: the integrated application-server + driver architecture.

The paper's contribution (Section 5): one (or, N-copy, a few) reactor
thread(s) manage **both** the upstream client connections and the
downstream datastore connections.  Each reactor loops over

1. *event monitoring* — one blocking ``select()`` over all its
   channels (no poll timeout: nothing ever has to be discovered by
   polling, because nothing crosses threads);
2. *batch scheduling* — the fanout-query-aware priority scheduler
   orders the ready batch (Section 5.2);
3. *event handling* — pluggable frontend/backend handlers run inline
   on the same thread, including final assembly.

Compared to the Type-2a/2b baselines this removes: the on-demand worker
pool (no lock contention, no thread-init cost, Section 3), the
frontend/backend thread split (no imbalanced workload, no spurious
selects, no wake-up syscalls, Section 4), and cross-thread completion
hand-offs.

With ``reactors > 1`` the server follows the N-copy model: upstream
connections are assigned round-robin, and every reactor owns a private
set of downstream connections so a request's whole lifecycle stays on
one thread.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..drivers.base import AppServer
from ..sim.network import ChannelEndpoint, Connection
from ..sim.syscalls import Selector
from ..sim.threads import SimThread
from .handlers import BackendHandler, EventHandler, FrontendHandler, TaskHandler
from .scheduling import BatchScheduler, DeferIncompleteScheduler, FanoutAwareScheduler

__all__ = ["DoubleFaceServer", "Reactor"]


class Reactor:
    """One DoubleFaceAD reactor: a thread, its selector, its connections."""

    __slots__ = ("server", "index", "selector", "thread", "downstream",
                 "inflight", "upstream_count")

    def __init__(self, server: "DoubleFaceServer", index: int) -> None:
        self.server = server
        self.index = index
        self.selector = Selector(
            server.sim, server.cpu, server.metrics, server.params,
            name=f"{server.name}.reactor{index}")
        self.thread = SimThread(server.cpu, name=f"{server.name}-reactor-{index}")
        #: Reactor-private downstream connections, one per shard.
        self.downstream: List[Connection] = []
        #: In-flight request states owned by this reactor (diagnostics).
        self.inflight: Dict[int, object] = {}
        self.upstream_count = 0

    def open_downstream(self) -> None:
        cluster = self.server.cluster
        for shard_id in range(cluster.n_shards):
            conn = cluster.connect_shard(shard_id)
            channel = self.selector.open_channel("downstream", context=conn)
            conn.attach("a", ChannelEndpoint(channel))
            self.downstream.append(conn)

    def post(self, thread: Optional[SimThread], task) -> "object":
        """Coroutine: inject a task event into this reactor's loop."""
        return self.selector.post(thread, task)


class DoubleFaceServer(AppServer):
    """The DoubleFaceAD-based application server (DoubleFaceNetty)."""

    kind = "doubleface"

    def __init__(self, *args, reactors: Optional[int] = None,
                 scheduler: Optional[BatchScheduler] = None,
                 business_logic=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        count = reactors if reactors is not None else len(self.cpu.cores)
        if count < 1:
            raise ValueError("need at least one reactor")
        self.scheduler = scheduler if scheduler is not None else FanoutAwareScheduler()
        self.reactors: List[Reactor] = [Reactor(self, i) for i in range(count)]
        self.handlers: Dict[str, EventHandler] = {
            "upstream": FrontendHandler(business_logic=business_logic),
            "downstream": BackendHandler(),
            "task": TaskHandler(),
        }

    # -- pluggability -------------------------------------------------------

    def register_handler(self, kind: str, handler: EventHandler) -> None:
        """Swap the handler for channel kind *kind* (the paper's
        maintenance-flexibility argument: frontend business logic and
        backend driver management upgrade independently)."""
        if not isinstance(handler, EventHandler):
            raise TypeError("handler must implement EventHandler")
        self.handlers[kind] = handler

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        for reactor in self.reactors:
            reactor.open_downstream()
            self.sim.process(self._reactor_loop(reactor),
                             name=reactor.thread.name)

    def selectors(self):
        return [reactor.selector for reactor in self.reactors]

    def accept_client(self, client: int) -> Connection:
        # Round-robin by client ordinal: the same spread as by accept
        # order, whenever and in whatever order clients connect.
        reactor = self.reactors[client % len(self.reactors)]
        reactor.upstream_count += 1
        conn = Connection(self.sim, self.metrics, self.params)
        channel = reactor.selector.open_channel("upstream", context=conn)
        conn.attach("b", ChannelEndpoint(channel))
        return conn

    # -- the integrated event loop ------------------------------------------------

    def _reactor_loop(self, reactor: Reactor):
        thread = reactor.thread
        while True:
            # Blocking select: both traffic directions arrive here, so
            # there is never a reason to wake up without work.
            batch = yield from reactor.selector.select(thread, timeout=None)
            ordered = self.scheduler.order(batch)
            if isinstance(self.scheduler, DeferIncompleteScheduler):
                # Deferred events go back into the ready queue; they are
                # re-considered in the next monitoring phase together
                # with whatever has arrived by then.
                for event in self.scheduler.take_deferred():
                    reactor.selector._ready.append(event)
            for channel, message in ordered:
                handler = self.handlers.get(channel.kind)
                if handler is None:
                    raise RuntimeError(f"no handler for channel kind "
                                       f"{channel.kind!r}")
                yield from handler.handle(reactor, channel, message)
