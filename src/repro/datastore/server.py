"""A simulated datastore shard server.

Each shard runs on its own node (as in the paper's testbed, where every
datastore got a dedicated machine), so shard-side CPU is *not* charged
to the application server's cores; a shard is modelled as a G/G/c
queueing station whose service times come from
:class:`~repro.datastore.kvstore.ServiceTimeModel`.

If the shard holds materialised data (small datasets in tests and
examples), responses carry the actual records; otherwise only the
payload size travels, which is all the drivers observe.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

from ..messages import Query, QueryResponse
from ..sim.kernel import Simulator
from ..sim.metrics import Metrics
from ..sim.network import Connection, Endpoint
from ..sim.params import CostParams
from ..sim.resources import Queue
from ..trace import K_SERVER_QUEUE, K_SERVICE
from .kvstore import KVStore, ServiceTimeModel
from .records import RecordSchema, record_size

__all__ = ["ShardServer"]


class _TaggingEndpoint(Endpoint):
    """Delivers (connection, message) pairs so replies can be routed."""

    __slots__ = ("queue", "conn")

    def __init__(self, queue: Queue, conn: Connection) -> None:
        self.queue = queue
        self.conn = conn

    def deliver(self, message: Any) -> None:
        sim = self.conn.sim
        tracer = sim.tracer
        if tracer is not None and tracer.trace_of(message) is not None:
            tracer.stamp_arrival(message, sim.now)
        self.queue.put((self.conn, message))


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
        self._inbox: Queue = Queue(sim)
        self.queries_served = 0
        # Interned per-query instruments (fault counters are bumped by
        # name, so they appear on first count and healthy runs never
        # report zero-valued fault keys).
        self._queries = metrics.counter("datastore.queries")
        self._shard_queries = metrics.counter(
            f"datastore.shard.{shard_id}.queries")
        self._service_latency = metrics.latency("datastore.service_time")
        for i in range(params.shard_concurrency):
            sim.process(self._serve_loop(), name=f"{self.name}-srv{i}")

    @property
    def inbox_depth(self) -> int:
        """Queries queued in the inbox, not yet picked up by a serve
        loop (telemetry diagnostics; reading it never perturbs the
        queue)."""
        return len(self._inbox)

    # -- connectivity -------------------------------------------------------

    def accept(self, latency: Optional[float] = None) -> Connection:
        """Create a connection whose side ``a`` the caller will attach.

        The shard listens on side ``b``.
        """
        conn = Connection(self.sim, self.metrics, self.params, latency=latency,
                          faults=self.faults)
        conn.attach("b", _TaggingEndpoint(self._inbox, conn))
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

    def _serve_loop(self):
        while True:
            conn, query = yield self._inbox.get()
            if not isinstance(query, Query):
                raise TypeError(f"shard received non-query {query!r}")
            faults = self.faults
            if faults is not None and faults.is_down(
                    self.shard_id, self.replica, self.sim.now):
                # Crashed: the query vanishes, like a dead TCP peer.
                # Recovery is the driver's problem (deadline + retry).
                self.metrics.add("faults.crash_dropped_queries")
                if self.sim.tracer is not None:
                    self.sim.tracer.pop_arrival(query)
                continue
            multiplier = 1.0
            if faults is not None:
                multiplier = faults.service_multiplier(
                    self.shard_id, self.replica, self.sim.now)
                if multiplier != 1.0:
                    self.metrics.add("faults.slowed_queries")
                    if faults.rack_active(self.shard_id, self.replica,
                                          self.sim.now):
                        self.metrics.add("faults.rack_slowed_queries")
            service_time = self.service_model.draw(
                query.op, query.response_size, multiplier=multiplier)
            tracer = self.sim.tracer
            trace = tracer.trace_of(query) if tracer is not None else None
            if trace is not None:
                service_start = self.sim.now
                arrived = tracer.pop_arrival(query)
                if arrived is not None:
                    trace.add(K_SERVER_QUEUE, arrived, service_start,
                              seq=query.seq, attempt=query.attempt,
                              shard=self.shard_id, replica=self.replica)
            yield self.sim.timeout(service_time)
            if trace is not None:
                trace.add(K_SERVICE, service_start, self.sim.now,
                          seq=query.seq, attempt=query.attempt,
                          shard=self.shard_id, replica=self.replica)
            self.queries_served += 1
            self._queries.add()
            self._shard_queries.add()
            self._service_latency.record(self.sim.now, service_time)
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
            # thread=None send never yields nor charges: go straight to
            # the wire, skipping the generator frame per response.
            conn.transmit(response, response.wire_size, "a")
