"""Blocking connection pool for synchronous-RPC drivers.

Thread-based and Type-1 asynchronous drivers communicate with each
shard over *exclusively checked-out* connections (one outstanding query
per connection), the classic sync-RPC pattern.  Checkout/checkin go
through a single pool mutex — the shared structure whose contention
perf attributes to "Locking (mutex)" in Table 1 when many worker
threads hammer it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from ..datastore.cluster import DatastoreCluster
from ..messages import Query, QueryResponse
from ..sim.cpu import Cpu
from ..sim.kernel import Simulator
from ..sim.metrics import Metrics
from ..sim.network import Connection, InboxEndpoint
from ..sim.params import CostParams
from ..sim.threads import Mutex, SimThread, locked_section

__all__ = ["SyncConnectionPool"]


class SyncConnectionPool:
    """Per-shard free lists of blocking connections, one global lock."""

    def __init__(self, sim: Simulator, cpu: Cpu, metrics: Metrics,
                 params: CostParams, cluster: DatastoreCluster,
                 name: str = "connpool",
                 resilience: Optional[Any] = None) -> None:
        self.sim = sim
        self.cpu = cpu
        self.metrics = metrics
        self.params = params
        self.cluster = cluster
        self.name = name
        #: Optional shared :class:`~repro.faults.ResiliencePolicy`.
        self.resilience = resilience
        self.mutex = Mutex(sim, cpu, metrics, params, name=name)
        #: Free lists keyed by (shard, replica): a connection checked
        #: out for a replica only ever serves that replica, so the
        #: receive side stays a simple exclusive inbox.
        self._free: Dict[Tuple[int, int],
                         List[Tuple[Connection, InboxEndpoint]]] = (
            defaultdict(list))
        self.created = 0
        # Interned per-checkout counters (resilience.* names are bumped
        # by name, on first count).
        self._reused = metrics.counter(f"pool.{name}.reused")
        self._created = metrics.counter(f"pool.{name}.created")

    def checkout(self, thread: SimThread, shard_id: int, replica: int = 0):
        """Coroutine: obtain an exclusive (connection, inbox) pair to
        one replica of *shard_id* (0 = primary).

        Creates a new connection (paying one TCP-setup round trip) when
        the free list is empty — the pool grows to the high-water mark
        of concurrent queries per shard replica, like a real driver
        pool.
        """
        yield from locked_section(
            thread, self.mutex, self.params.mutex_hold_time, "app")
        free = self._free[shard_id, replica]
        if free:
            self._reused.add()
            return free.pop()
        conn = self.cluster.connect_shard(shard_id, replica)
        inbox = InboxEndpoint(self.sim, self.cpu, self.params)
        conn.attach("a", inbox)
        self.created += 1
        self._created.add()
        # TCP handshake: one round trip before the connection is usable.
        yield self.sim.timeout(2 * conn.latency)
        return conn, inbox

    def checkin(self, thread: SimThread, shard_id: int,
                pair: Tuple[Connection, InboxEndpoint],
                replica: int = 0):
        """Coroutine: return a pair to its (shard, replica) free list."""
        yield from locked_section(
            thread, self.mutex, self.params.mutex_hold_time, "app")
        self._free[shard_id, replica].append(pair)

    def sync_query(self, thread: SimThread, query: Query):
        """Coroutine: the full synchronous RPC — checkout, send, block
        for the response, checkin.  Returns the :class:`QueryResponse`.

        With a resilience policy attached, the send is supervised
        (deadline/retry/hedge watchdogs run off simulated timers while
        this thread stays blocked, exactly like a driver whose socket
        read has a timeout managed elsewhere), and the receive loop
        skips stale messages: hedge losers and post-retry stragglers
        left in the pooled connection's inbox by earlier checkouts.
        """
        selector = self.cluster.replica_selector
        replica = selector.pick(query.shard_id)
        pair = yield from self.checkout(thread, query.shard_id, replica)
        conn, inbox = pair
        yield thread.execute(self.params.fanout_send_cost, "app")
        yield from conn.send(thread, query, query.wire_size, to_side="b")
        if self.resilience is not None:
            self.resilience.arm(query.context, query, conn, replica)
        while True:
            response = yield from inbox.recv(thread)
            if not isinstance(response, QueryResponse):
                raise TypeError(
                    f"unexpected message on sync connection: {response!r}")
            # Retire the selector's in-flight charge for every real
            # response, stale or winning (and feed the ewma policy the
            # observed wire-to-wire latency).
            selector.note_response(response, self.sim.now)
            if (response.request_id != query.request_id
                    or response.seq != query.seq):
                # A straggler from a previous checkout of this pooled
                # connection; its sub-query was already won.
                self.metrics.add("resilience.stale_sync_responses")
                continue
            if (self.resilience is not None
                    and not self.resilience.on_response(query.context,
                                                        response)):
                continue
            break
        yield from self.checkin(thread, query.shard_id, pair, replica)
        return response
