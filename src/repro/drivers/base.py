"""Shared machinery of every application-server + driver architecture.

All five servers (thread-based, Type-1, Type-2a Netty, Type-2b AIO,
DoubleFaceAD) share the same request lifecycle:

1. read + parse an upstream :class:`~repro.messages.HttpRequest`
   (``http_parse_cost`` + any ``request_cpu`` business logic);
2. issue one :class:`~repro.messages.Query` per fanout target
   (``fanout_send_cost`` + write syscall each);
3. process each :class:`~repro.messages.QueryResponse`
   (``response_process_cost``, proportional to payload);
4. when all fanout responses are in, assemble + send the
   :class:`~repro.messages.HttpResponse` (``assemble_cost``).

What differs between architectures — and what the paper studies — is
*which thread does what*.  Subclasses implement :meth:`accept_client`
(wiring an upstream connection into their event machinery) and the
processing flow; this base centralises query construction, request
bookkeeping, and completion accounting so the architectures differ only
in their concurrency structure.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..datastore.cluster import DatastoreCluster
from ..datastore.sharding import pick_fanout_shards
from ..messages import HttpRequest, HttpResponse, Query
from ..sim.cpu import Cpu
from ..sim.kernel import Simulator
from ..sim.metrics import Metrics
from ..sim.params import CostParams
from ..sim.rng import RngStreams, lognormal_from_mean_cv
from ..sim.network import Connection
from ..sim.threads import Mutex, SimThread, locked_section
from ..trace import K_ASSEMBLE, K_PARSE, K_PROCESS

__all__ = ["AppServer", "RequestState", "default_op_rule"]


def default_op_rule(response_size: int) -> str:
    """The paper's rule: responses larger than one record (1 kB) come
    from scan queries, smaller ones from point lookups."""
    return "scan" if response_size > 1024 else "get"


class RequestState:
    """Lifecycle bookkeeping for one in-flight upstream request."""

    __slots__ = ("request", "conn", "remaining", "fanout", "total_bytes",
                 "arrived_at", "first_response_at", "session", "won",
                 "failed", "trace")

    def __init__(self, request: HttpRequest, conn: Connection, now: float) -> None:
        self.request = request
        self.conn = conn
        self.remaining = request.fanout
        self.fanout = request.fanout
        self.total_bytes = 0
        self.arrived_at = now
        self.first_response_at: Optional[float] = None
        #: The request's :class:`repro.trace.Trace` when sampled (the
        #: ``Query``/``QueryResponse`` messages reach it via their
        #: ``context``; a posted completed state carries it directly).
        self.trace = request.trace
        #: Per-sub-query trackers (seq -> tracker) installed by
        #: :meth:`repro.faults.ResiliencePolicy.attach`; None when no
        #: resilience policy is active.
        self.session = None
        #: Seqs whose winning response was absorbed (tracker already
        #: dropped from ``session``); lets late hedge losers still be
        #: recognised as stale.
        self.won = None
        #: Sub-queries that exhausted their retries; the request
        #: completed with a degraded (partial) payload.
        self.failed = 0

    @property
    def complete(self) -> bool:
        return self.remaining == 0

    def absorb(self, payload_size: int, now: float,
               response: Any = None) -> bool:
        """Account one fanout response; True when this was the last.

        When the request is traced and the caller passes the winning
        *response*, the completing sub-query is stamped on the trace as
        the critical path's join point.
        """
        if self.remaining <= 0:
            raise RuntimeError(
                f"request {self.request.request_id} received more responses "
                "than fanout queries")
        if self.first_response_at is None:
            self.first_response_at = now
        self.remaining -= 1
        self.total_bytes += payload_size
        done = self.remaining == 0
        if done and self.trace is not None and response is not None:
            self.trace.note_win(response)
        return done


class AppServer:
    """Base class for every server architecture under study."""

    #: Human-readable architecture name, set by subclasses.
    kind = "abstract"

    def __init__(self, sim: Simulator, metrics: Metrics, params: CostParams,
                 cluster: DatastoreCluster, rng_streams: RngStreams,
                 op_rule: Callable[[int], str] = default_op_rule,
                 name: str = "", resilience: Optional[Any] = None) -> None:
        self.sim = sim
        self.metrics = metrics
        self.params = params
        self.cluster = cluster
        self.name = name or self.kind
        self.op_rule = op_rule
        #: Optional shared :class:`~repro.faults.ResiliencePolicy`.
        #: None (the default) keeps every code path identical to the
        #: pre-resilience behaviour.
        self.resilience = resilience
        self.cpu = Cpu(sim, metrics, params, name="app")
        self._fanout_rng = rng_streams.stream(f"{self.name}.fanout")
        self._request_cpu_rng = rng_streams.stream(f"{self.name}.request_cpu")
        self.requests_completed = 0
        # Interned per-request instruments.  The degraded counter and
        # other fault-path names are bumped by name, so they appear on
        # first count: healthy runs must not grow zero-valued fault
        # keys.  Per-class counters are interned on
        # first use so their relative creation order is unchanged.
        self._requests_counter = metrics.counter("server.requests")
        self._fanout_responses = metrics.counter("server.fanout_responses")
        self._completed = metrics.counter("server.completed")
        self._completed_by_klass: dict = {}
        self._time_in_server = metrics.latency("server.time_in_server")
        #: Shared buffer-allocator lock.  Architectures whose worker
        #: threads are transient or unbounded (thread-based, Type-1,
        #: Type-2b) allocate from a process-wide pool and contend here;
        #: reactor architectures (Type-2a, DoubleFaceAD) use per-thread
        #: arenas and never touch it.
        self.allocator = Mutex(sim, self.cpu, metrics, params,
                               name=f"{self.name}.allocator")

    # -- to be provided by subclasses ------------------------------------

    def accept_client(self, client: int) -> Connection:
        """Open an upstream connection for client ordinal *client*
        (0-based, unique per workload); the client attaches side
        ``a``."""
        raise NotImplementedError

    def start(self) -> None:
        """Launch the server's threads (called once by the harness)."""
        raise NotImplementedError

    def selectors(self):
        """All selectors this server owns (for Table 2/3 reporting)."""
        return []

    # -- shared helpers -----------------------------------------------------

    def new_request_state(self, request: HttpRequest,
                          conn: Connection) -> RequestState:
        """A :class:`RequestState`, wired to the resilience policy."""
        state = RequestState(request, conn, self.sim.now)
        if self.resilience is not None:
            self.resilience.attach(state)
        return state

    def arm_subquery(self, state: RequestState, query: Query,
                     conn: Connection, replica: int = 0) -> None:
        """Register a just-sent sub-query with the resilience policy
        (deadline + hedge watchdogs).  No-op without a policy."""
        if query.sent_at == 0.0:
            # Wire stamp for latency-aware replica routing; the send
            # path (Connection.send / ResiliencePolicy._transmit)
            # normally stamps it, this is the fallback for tests that
            # arm without sending.
            query.sent_at = self.sim.now
        if self.resilience is not None:
            self.resilience.arm(state, query, conn, replica)

    def route_initial(self, query: Query,
                      primary_conn: Connection) -> "tuple[Connection, int]":
        """Pick the replica for *query*'s initial send.

        Returns ``(conn, replica)``.  Under the default ``primary``
        policy this is ``(primary_conn, 0)`` with zero overhead; other
        policies send on the cluster's
        :meth:`~repro.datastore.cluster.DatastoreCluster.replica_connection`
        for the primary connection's receive endpoint.
        """
        replica = self.cluster.replica_selector.pick(query.shard_id)
        if replica == 0:
            return primary_conn, 0
        return self.cluster.replica_connection(
            primary_conn.endpoint_a, query.shard_id, replica), replica

    def response_is_fresh(self, state: RequestState, response: Any) -> bool:
        """True when *response* is the winning response for its
        sub-query.  Stale duplicates (hedge losers, post-retry or
        post-failure stragglers) must be dropped before any processing
        CPU is charged."""
        # Retire the in-flight count the replica selector charged at
        # send time — for every real response, winner or straggler —
        # and (ewma policy) feed it the observed response latency.
        self.cluster.replica_selector.note_response(response, self.sim.now)
        if self.resilience is None:
            return True
        return self.resilience.on_response(state, response)

    def build_queries(self, request: HttpRequest, context: Any) -> List[Query]:
        """One query per fanout target, on distinct shards."""
        shard_ids = pick_fanout_shards(
            self._fanout_rng, self.cluster.n_shards, request.fanout)
        op = self.op_rule(request.response_size)
        keys = request.keys
        queries = []
        for seq, shard_id in enumerate(shard_ids):
            key = keys[seq] if keys is not None and seq < len(keys) else None
            queries.append(Query(
                request_id=request.request_id,
                shard_id=shard_id,
                op=op,
                response_size=request.response_size,
                key=key,
                seq=seq,
                context=context,
            ))
        return queries

    def parse_request(self, thread: SimThread, request: HttpRequest):
        """Coroutine: charge request parsing + business-logic CPU.

        The business-logic cost is drawn from a lognormal with mean
        :attr:`CostParams.request_cpu` and CV
        :attr:`CostParams.request_cpu_cv` (deterministic when the CV
        is 0), modelling heterogeneous page weights.
        """
        self._requests_counter.add()
        cost = self.params.http_parse_cost
        if self.params.request_cpu > 0:
            if self.params.request_cpu_cv > 0:
                cost += lognormal_from_mean_cv(
                    self._request_cpu_rng, self.params.request_cpu,
                    self.params.request_cpu_cv)
            else:
                cost += self.params.request_cpu
        trace = request.trace if self.sim.tracer is not None else None
        if trace is None:
            yield thread.execute(cost, "app")
        else:
            started = self.sim.now
            yield thread.execute(cost, "app")
            trace.add(K_PARSE, started, self.sim.now, work=cost)

    def process_response_cpu(self, thread: SimThread, payload_size: int,
                             response: Any = None):
        """Coroutine: charge fanout-response processing CPU.

        Callers pass the *response* so sampled requests get a
        ``process`` span tagged with the sub-query's seq/attempt (the
        critical-path analyzer needs the winning attempt's CPU span).
        """
        self._fanout_responses.add()
        cost = self.params.response_process_cost(payload_size)
        trace = None
        if self.sim.tracer is not None and response is not None:
            trace = self.sim.tracer.trace_of(response)
        if trace is None:
            yield thread.execute(cost, "app")
        else:
            started = self.sim.now
            yield thread.execute(cost, "app")
            trace.add(K_PROCESS, started, self.sim.now,
                      seq=response.seq, attempt=response.attempt,
                      work=cost, shard=response.shard_id,
                      replica=response.replica)

    def allocate_buffer(self, thread: SimThread, size: int):
        """Coroutine: allocate a response buffer from the *shared* pool
        (only called by non-reactor architectures).

        Small allocations come from thread-local caches and are free;
        only buffers past the TLAB threshold serialise on the shared
        allocator lock.
        """
        if size < self.params.alloc_tlab_threshold:
            return
        hold = (self.params.alloc_base_hold
                + self.params.alloc_per_kb_hold * (size / 1024.0))
        yield from locked_section(thread, self.allocator, hold, "app")

    def finish_request(self, thread: SimThread, state: RequestState):
        """Coroutine: assemble the reply and send it upstream."""
        cost = self.params.assemble_cost(state.total_bytes)
        trace = state.trace if self.sim.tracer is not None else None
        if trace is None:
            yield thread.execute(cost, "app")
        else:
            started = self.sim.now
            yield thread.execute(cost, "app")
            trace.add(K_ASSEMBLE, started, self.sim.now, work=cost)
        response = HttpResponse(
            request_id=state.request.request_id,
            payload_size=state.total_bytes,
            klass=state.request.klass,
            completed_at=self.sim.now,
            trace=state.trace,
        )
        self.requests_completed += 1
        self._completed.add()
        klass = state.request.klass
        by_klass = self._completed_by_klass.get(klass)
        if by_klass is None:
            by_klass = self.metrics.counter(f"server.completed.{klass}")
            self._completed_by_klass[klass] = by_klass
        by_klass.add()
        if state.failed:
            self.metrics.add("server.completed.degraded")
        self._time_in_server.record(
            self.sim.now, self.sim.now - state.arrived_at)
        yield from state.conn.send(thread, response, response.wire_size, to_side="a")
