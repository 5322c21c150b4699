"""A simulated datastore shard server.

Each shard runs on its own node (as in the paper's testbed, where every
datastore got a dedicated machine), so shard-side CPU is *not* charged
to the application server's cores; a shard is modelled as a G/G/c
queueing station whose service times come from
:class:`~repro.datastore.kvstore.ServiceTimeModel`.

The station is plain callbacks, with no simulated process: a query that
finds one of the ``shard_concurrency`` service slots free starts service
the moment it is delivered, otherwise it waits in a FIFO; each service
completion replies and starts the next waiting query at once.

If the shard holds materialised data (small datasets in tests and
examples), responses carry the actual records; otherwise only the
payload size travels, which is all the drivers observe.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from ..messages import Query, QueryResponse
from ..sim.kernel import Simulator
from ..sim.metrics import Metrics
from ..sim.network import Connection, Endpoint
from ..sim.params import CostParams
from ..trace import K_SERVER_QUEUE, K_SERVICE
from .kvstore import KVStore, ServiceTimeModel
from .records import RecordSchema, record_size

__all__ = ["ShardServer"]


class _TaggingEndpoint(Endpoint):
    """Hands each arriving query, with the connection it came on, to the
    shard, so the reply can be routed back."""

    __slots__ = ("shard", "conn")

    def __init__(self, shard: "ShardServer", conn: Connection) -> None:
        self.shard = shard
        self.conn = conn

    def deliver(self, message: Any) -> None:
        self.shard._arrive(self.conn, message)


class ShardServer:
    """One datastore shard: accepts queries, serves them, replies."""

    def __init__(self, sim: Simulator, metrics: Metrics, params: CostParams,
                 shard_id: int, rng: random.Random,
                 speed_factor: float = 1.0, size_factor: float = 1.0,
                 schema: Optional[RecordSchema] = None,
                 name: str = "", replica: int = 0, rack: int = 0,
                 faults: Optional[Any] = None) -> None:
        self.sim = sim
        self.metrics = metrics
        self.params = params
        self.shard_id = shard_id
        #: Replica index within the shard's replica set (0 = primary).
        self.replica = replica
        #: Rack this server is placed in (correlated-fault topology).
        self.rack = rack
        #: Optional :class:`~repro.faults.FaultSchedule` consulted per
        #: query for crash windows and slowdown multipliers.
        self.faults = faults
        self.name = name or f"shard-{shard_id}"
        self.store = KVStore()
        self.schema = schema
        self.service_model = ServiceTimeModel(
            params, rng, speed_factor=speed_factor, size_factor=size_factor)
        #: Queries waiting for a free service slot, as
        #: ``(conn, query, arrived)`` in arrival order.
        self._waiting: Deque[Tuple[Connection, Query, float]] = deque()
        self._free_slots = params.shard_concurrency
        self.queries_served = 0
        # Interned per-query instruments (fault counters are bumped by
        # name, so they appear on first count and healthy runs never
        # report zero-valued fault keys).
        self._queries = metrics.counter("datastore.queries")
        self._shard_queries = metrics.counter(
            f"datastore.shard.{shard_id}.queries")
        self._service_latency = metrics.latency("datastore.service_time")

    @property
    def inbox_depth(self) -> int:
        """Queries waiting for a service slot (telemetry diagnostics;
        reading it never perturbs the queue)."""
        return len(self._waiting)

    # -- connectivity -------------------------------------------------------

    def accept(self, latency: Optional[float] = None) -> Connection:
        """Create a connection whose side ``a`` the caller will attach.

        The shard listens on side ``b``.
        """
        conn = Connection(self.sim, self.metrics, self.params, latency=latency,
                          faults=self.faults)
        conn.attach("b", _TaggingEndpoint(self, conn))
        return conn

    # -- data ---------------------------------------------------------------

    def load(self, items: List[Tuple[str, bytes]]) -> None:
        """Materialise records into the shard's local store."""
        for key, value in items:
            self.store.put(key, value)

    # -- serving -----------------------------------------------------------------

    def _lookup_records(self, query: Query):
        """Fetch real records when the store is materialised."""
        if query.key is None or len(self.store) == 0:
            return None
        if query.op == "get":
            value = self.store.get(str(query.key))
            return [(query.key, value)] if value is not None else []
        limit = 1
        if self.schema is not None:
            per_record = max(1, record_size(self.schema))
            limit = max(1, query.response_size // per_record)
        return self.store.scan(str(query.key), limit)

    def _arrive(self, conn: Connection, query: Any) -> None:
        """A query came in: serve it on a free slot, or queue it."""
        if not isinstance(query, Query):
            raise TypeError(f"shard received non-query {query!r}")
        if self._free_slots:
            self._free_slots -= 1
            self._start(conn, query, self.sim.now)
        else:
            self._waiting.append((conn, query, self.sim.now))

    def _start(self, conn: Connection, query: Query, arrived: float) -> None:
        """Start serving *query* on a slot the caller holds; the slot is
        freed if the crash check drops every query left."""
        sim = self.sim
        faults = self.faults
        if faults is not None:
            while faults.is_down(self.shard_id, self.replica, sim.now):
                # Crashed: the query vanishes, like a dead TCP peer.
                # Recovery is the driver's problem (deadline + retry).
                self.metrics.add("faults.crash_dropped_queries")
                if not self._waiting:
                    self._free_slots += 1
                    return
                conn, query, arrived = self._waiting.popleft()
            multiplier = faults.service_multiplier(
                self.shard_id, self.replica, sim.now)
            if multiplier != 1.0:
                self.metrics.add("faults.slowed_queries")
                if faults.rack_active(self.shard_id, self.replica, sim.now):
                    self.metrics.add("faults.rack_slowed_queries")
        else:
            multiplier = 1.0
        service_time = self.service_model.draw(
            query.op, query.response_size, multiplier=multiplier)
        tracer = sim.tracer
        if tracer is not None:
            trace = tracer.trace_of(query)
            if trace is not None:
                trace.add(K_SERVER_QUEUE, arrived, sim.now,
                          seq=query.seq, attempt=query.attempt,
                          shard=self.shard_id, replica=self.replica)
        sim.call_later(service_time, self._done,
                       (conn, query, sim.now, service_time))

    def _done(self, job: Tuple[Connection, Query, float, float]) -> None:
        """Service ended: reply, then hand the slot to the next query."""
        conn, query, started, service_time = job
        sim = self.sim
        now = sim.now
        tracer = sim.tracer
        if tracer is not None:
            trace = tracer.trace_of(query)
            if trace is not None:
                trace.add(K_SERVICE, started, now,
                          seq=query.seq, attempt=query.attempt,
                          shard=self.shard_id, replica=self.replica)
        self.queries_served += 1
        self._queries.add()
        self._shard_queries.add()
        self._service_latency.record(now, service_time)
        response = QueryResponse(
            request_id=query.request_id,
            shard_id=self.shard_id,
            payload_size=query.response_size,
            seq=query.seq,
            context=query.context,
            records=self._lookup_records(query),
            service_time=service_time,
            attempt=query.attempt,
            replica=self.replica,
            sent_at=query.sent_at,
        )
        conn.transmit(response, response.wire_size, "a")
        if self._waiting:
            self._start(*self._waiting.popleft())
        else:
            self._free_slots += 1
