"""Driver-side resilience: deadlines, retries, hedging, failover.

One :class:`ResiliencePolicy` per run, shared by every component that
sends fanout queries (:class:`~repro.drivers.base.AppServer` reactors
and the :class:`~repro.drivers.conn_pool.SyncConnectionPool`).  The
contract:

- :meth:`ResiliencePolicy.attach` gives a
  :class:`~repro.drivers.base.RequestState` a per-sub-query session map.
- :meth:`ResiliencePolicy.arm` is called right after a sub-query's
  initial send; it schedules the deadline and hedge watchdogs as bare
  ``call_later`` kernel entries (no thread is blocked waiting).
- :meth:`ResiliencePolicy.on_response` is called for every response
  surfacing from a shard connection; the **first** response per
  sub-query wins, duplicates (hedge losers, post-retry stragglers,
  post-failure stragglers) report stale and are dropped by the caller
  before any processing CPU is charged.

A sub-query armed with a deadline is *guaranteed* to produce exactly
one winning response: either a real one arrives, or after
``max_retries`` resends the policy synthesises a failed
:class:`~repro.messages.QueryResponse` (``failed=True``, empty payload)
and delivers it through the same endpoint real responses use.  The
request completes degraded instead of wedging its closed-loop user.

Retried and hedged sub-queries stay *outstanding* until their winning
response is absorbed — ``RequestState.remaining`` only ever decrements
on a win — so the DoubleFaceAD batch scheduler's fewest-remaining-first
ordering keeps working unmodified semantics under faults.

Failover targets come from the cluster's shared
:class:`~repro.datastore.sharding.ReplicaSelector`: each retry/hedge
rotates away from the replica it last tried, so concurrent hedges
spread over the replica set instead of stampeding replica 1 (the old
hard-coded behaviour).  On the winning response the tracker is dropped
from the session map (long-lived requests no longer accumulate dead
trackers); the per-request ``won`` set keeps late duplicates
detectable.

Determinism: backoff jitter is the only randomness, drawn from the
dedicated ``resilience.jitter`` stream in watchdog-firing order, which
the single-threaded simulator fixes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from ..messages import Query, QueryResponse
from ..sim.kernel import Simulator
from ..sim.metrics import Metrics
from ..sim.rng import RngStreams
from ..trace import FLAG_SYNTHESIZED, K_FAILED, K_HEDGE, K_RETRY
from .digest import AttemptDigest, nearest_rank

__all__ = ["ResilienceConfig", "ResiliencePolicy", "HEDGE_ATTEMPT"]

#: ``Query.attempt`` tag for hedged sends (retries use 1..max_retries),
#: so hedge wins are distinguishable from retry wins in the metrics.
HEDGE_ATTEMPT = -1


@dataclass(frozen=True)
class ResilienceConfig:
    """How the driver reacts to slow or lost sub-queries."""

    #: Per-sub-query deadline; 0 disables deadlines (and thus retries).
    subquery_deadline: float = 0.0
    #: Resends after the first deadline miss before giving up.
    max_retries: int = 0
    #: First backoff delay; doubles per retry up to ``backoff_cap``.
    backoff_base: float = 0.5e-3
    backoff_cap: float = 8e-3
    #: Symmetric jitter fraction applied to each backoff delay
    #: (0.2 = +/-20%), drawn from the ``resilience.jitter`` stream.
    backoff_jitter: float = 0.2

    #: Fixed hedge delay: send a duplicate to another replica this long
    #: after the original.  0 disables the fixed hedge.
    hedge_delay: float = 0.0
    #: Adaptive hedge: hedge at this percentile of observed sub-query
    #: latency (e.g. 95.0).  0 disables; ignored when ``hedge_delay``
    #: is set.  No hedges fire until ``hedge_min_samples`` completions.
    hedge_percentile: float = 0.0
    hedge_min_samples: int = 50

    #: Where the adaptive hedge delay comes from.  ``"percentile"``
    #: (default) keeps one global sliding window shared by every shard;
    #: ``"attribution"`` consults a per-(shard, replica)
    #: :class:`~repro.faults.digest.AttemptDigest` of per-attempt
    #: latencies, so each shard hedges at its *own* percentile (and,
    #: when tracing is on, the live critical-path breakdown trims the
    #: network + selector-wait share off the learned delay).  Requires
    #: ``hedge_percentile > 0``; ignored when ``hedge_delay`` is set.
    hedge_policy: str = "percentile"
    #: Per-(shard, replica) ring capacity for the attribution digest.
    digest_window: int = 128
    #: Minimum observations a shard needs before its digest overrides
    #: the global window.
    digest_min_samples: int = 32

    def __post_init__(self) -> None:
        # Written as not (x >= bound) so NaN fails too.
        if not (self.subquery_deadline >= 0):
            raise ValueError("subquery_deadline must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (0 < self.backoff_base <= self.backoff_cap):
            raise ValueError("need 0 < backoff_base <= backoff_cap")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must be in [0, 1)")
        if not (self.hedge_delay >= 0):
            raise ValueError("hedge_delay must be >= 0")
        if not 0.0 <= self.hedge_percentile <= 100.0:
            raise ValueError("hedge_percentile must be in [0, 100]")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")
        if self.hedge_policy not in ("percentile", "attribution"):
            raise ValueError("hedge_policy must be 'percentile' or"
                             " 'attribution'")
        if self.hedge_policy == "attribution" and self.hedge_percentile <= 0:
            raise ValueError("hedge_policy='attribution' requires"
                             " hedge_percentile > 0")
        if self.digest_window < 1:
            raise ValueError("digest_window must be >= 1")
        if self.digest_min_samples < 1:
            raise ValueError("digest_min_samples must be >= 1")

    @property
    def active(self) -> bool:
        return (self.subquery_deadline > 0 or self.hedge_delay > 0
                or self.hedge_percentile > 0)


class _SubTracker:
    """Lifecycle of one armed sub-query (all attempts share it)."""

    __slots__ = ("query", "state", "conn", "attempts", "done", "sent_at",
                 "hedged", "home_replica", "replica")

    def __init__(self, query: Query, state: Any, conn: Any,
                 sent_at: float, replica: int) -> None:
        self.query = query
        self.state = state
        self.conn = conn
        self.attempts = 1          # sends so far, including the original
        self.done = False
        self.sent_at = sent_at
        self.hedged = False
        #: Replica the initial send went to (``conn`` points there).
        self.home_replica = replica
        #: Replica of the most recent send — what a retry/hedge avoids.
        self.replica = replica


class ResiliencePolicy:
    """Shared deadline/retry/hedge/failover engine for one run."""

    #: Sliding window size for the adaptive hedge-delay percentile.
    WINDOW = 512
    #: Recompute the cached percentile every this many completions.
    REFRESH = 64

    def __init__(self, sim: Simulator, metrics: Metrics,
                 config: ResilienceConfig, rng_streams: RngStreams,
                 cluster: Any) -> None:
        self.sim = sim
        self.metrics = metrics
        self.config = config
        self.cluster = cluster
        #: Replica selector shared with the drivers' initial sends, so
        #: hedges/retries see the same in-flight counts the router does.
        self.selector = cluster.replica_selector
        self._rng: random.Random = rng_streams.stream("resilience.jitter")
        self._window: List[float] = []
        self._window_pos = 0
        self._completions = 0
        self._hedge_cached: float = -1.0  # <0 = needs recompute
        #: Per-(shard, replica) attempt-latency digest; only exists
        #: under ``hedge_policy="attribution"`` so the default hot path
        #: pays nothing.
        self._digest: Optional[AttemptDigest] = (
            AttemptDigest(config.digest_window)
            if config.hedge_policy == "attribution" else None)
        #: Attribution delay cache, (shard, replica) -> delay; dropped
        #: wholesale every REFRESH completions alongside the global one.
        self._hedge_by_key: Dict[Any, float] = {}

    # -- wiring -------------------------------------------------------------

    def attach(self, state: Any) -> None:
        """Give *state* a sub-query session map (seq -> tracker) and a
        won-set remembering which seqs already produced a winner."""
        state.session = {}
        state.won = set()

    def arm(self, state: Any, query: Query, conn: Any,
            replica: int = 0) -> None:
        """Register *query*, just sent on *conn* (to *replica*), for
        supervision."""
        deadline = self.config.subquery_deadline
        hedge = self._hedge_delay(query.shard_id, replica)
        if deadline <= 0 and hedge <= 0:
            return
        if 0 < deadline <= hedge:
            # A learned delay at/past the deadline used to *silently
            # disable* hedging (exactly when the old feedback loop had
            # ratcheted it there).  Clamp so the hedge still fires with
            # a deadline's-worth of headroom, and count the clamp so
            # the condition is observable.
            hedge = 0.5 * deadline
            self.metrics.add("resilience.hedge_clamped")
        tracker = _SubTracker(query, state, conn, self.sim.now, replica)
        state.session[query.seq] = tracker
        if deadline > 0:
            self.sim.call_later(deadline, self._deadline_cb, tracker)
        if hedge > 0:
            self.sim.call_later(hedge, self._hedge_cb, tracker)

    def on_response(self, state: Any, response: QueryResponse) -> bool:
        """Account *response*; False = stale duplicate, drop it."""
        session = state.session
        if session is None:
            return True
        tracker = session.get(response.seq)
        if tracker is None:
            if response.seq in state.won:
                # Hedge loser / post-retry straggler arriving after its
                # winner's tracker was dropped from the session map.
                self.metrics.add("resilience.duplicates")
                return False
            # Sub-query was never armed (no deadline, hedging not yet
            # warmed up): exactly one response exists.
            return True
        # The win: free the tracker (the session map would otherwise
        # grow for the life of the request) but remember the seq so
        # stragglers still read as stale.
        tracker.done = True
        del session[response.seq]
        state.won.add(response.seq)
        if response.failed:
            # Synthesised timeout, not a completion: feeding its
            # "latency" (deadline x retries) into the adaptive-hedge
            # window would inflate the percentile and stop hedges from
            # firing exactly when they are needed most.
            state.failed += 1
        else:
            # Per-*attempt* latency: the winning attempt's wire send
            # (``Connection.transmit`` restamps ``Query.sent_at`` for
            # every resend; the shard echoes it) to arrival.  Measuring
            # from the tracker's *original* send instead folded the
            # hedge delay / retry backoff into the observation, so the
            # adaptive window learned from its own output and ratcheted
            # the delay upward exactly when hedging mattered.  Stubs
            # that never stamp the wire fall back to the arm time.
            sent = response.sent_at
            if sent <= 0.0:
                sent = tracker.sent_at
            latency = self.sim.now - sent
            self._observe(latency)
            if self._digest is not None:
                self._digest.observe(response.shard_id, response.replica,
                                     latency)
            if response.attempt == HEDGE_ATTEMPT:
                self.metrics.add("resilience.hedge_wins")
            elif response.attempt > 0:
                self.metrics.add("resilience.retry_wins")
        return True

    # -- watchdogs (bare call_later callbacks; no simulated thread) --------

    def _deadline_cb(self, tracker: _SubTracker) -> None:
        if tracker.done:
            return
        self.metrics.add("resilience.deadline_misses")
        cfg = self.config
        if tracker.attempts <= cfg.max_retries:
            delay = min(cfg.backoff_cap,
                        cfg.backoff_base * (2.0 ** (tracker.attempts - 1)))
            if cfg.backoff_jitter > 0:
                delay *= 1.0 + cfg.backoff_jitter * (
                    2.0 * self._rng.random() - 1.0)
            self.sim.call_later(delay, self._retry_cb, tracker)
        else:
            self._fail(tracker)

    def _retry_cb(self, tracker: _SubTracker) -> None:
        if tracker.done:
            return
        tracker.attempts += 1
        self.metrics.add("resilience.retries")
        attempt = tracker.attempts - 1
        replica = self._next_replica(tracker)
        if self.sim.tracer is not None:
            trace = getattr(tracker.state, "trace", None)
            if trace is not None:
                trace.point(K_RETRY, self.sim.now, seq=tracker.query.seq,
                            attempt=attempt,
                            shard=tracker.query.shard_id, replica=replica)
        self._transmit(tracker, replace(tracker.query, attempt=attempt),
                       replica)
        self.sim.call_later(self.config.subquery_deadline,
                            self._deadline_cb, tracker)

    def _hedge_cb(self, tracker: _SubTracker) -> None:
        if tracker.done or tracker.hedged:
            return
        tracker.hedged = True
        self.metrics.add("resilience.hedges")
        replica = self._next_replica(tracker)
        if self.sim.tracer is not None:
            trace = getattr(tracker.state, "trace", None)
            if trace is not None:
                trace.point(K_HEDGE, self.sim.now, seq=tracker.query.seq,
                            attempt=HEDGE_ATTEMPT,
                            shard=tracker.query.shard_id, replica=replica)
        self._transmit(tracker,
                       replace(tracker.query, attempt=HEDGE_ATTEMPT),
                       replica)

    def _fail(self, tracker: _SubTracker) -> None:
        """Out of retries: synthesise a failed response so the request
        completes (degraded) instead of wedging its user."""
        self.metrics.add("resilience.failed_subqueries")
        query = tracker.query
        if self.sim.tracer is not None:
            trace = getattr(tracker.state, "trace", None)
            if trace is not None:
                trace.point(K_FAILED, self.sim.now, seq=query.seq,
                            attempt=tracker.attempts - 1,
                            shard=query.shard_id, replica=tracker.replica,
                            flags=FLAG_SYNTHESIZED)
        response = QueryResponse(
            request_id=query.request_id, shard_id=query.shard_id,
            payload_size=0, seq=query.seq, context=tracker.state,
            failed=True)
        # Deliver through the same endpoint real responses use, so every
        # architecture's normal response path handles it.
        tracker.conn.endpoint_a.deliver(response)

    # -- resends ------------------------------------------------------------

    def _next_replica(self, tracker: _SubTracker) -> int:
        """Pick the replica for a retry/hedge of *tracker*'s sub-query.

        The shared selector rotates away from the *last* replica tried
        (so concurrent hedges spread over the replica set instead of
        stampeding one sibling); with one replica per shard the resend
        goes back to the same replica.
        """
        replica = self.selector.alternate(tracker.query.shard_id,
                                          tracker.replica)
        if replica != tracker.replica:
            self.metrics.add("resilience.failovers")
        return replica

    def _transmit(self, tracker: _SubTracker, query: Query,
                  replica: int) -> None:
        conn = tracker.conn
        if replica != tracker.home_replica:
            conn = self.cluster.replica_connection(
                conn.endpoint_a, query.shard_id, replica)
        tracker.replica = replica
        conn.transmit(query, query.wire_size, to_side="b")

    # -- adaptive hedging ---------------------------------------------------

    def _observe(self, latency: float) -> None:
        window = self._window
        if len(window) < self.WINDOW:
            window.append(latency)
        else:
            window[self._window_pos] = latency
            self._window_pos = (self._window_pos + 1) % self.WINDOW
        self._completions += 1
        if self._completions % self.REFRESH == 0:
            self._hedge_cached = -1.0
            if self._hedge_by_key:
                self._hedge_by_key.clear()

    def _global_percentile(self) -> float:
        """Nearest-rank percentile over the global sliding window."""
        values = sorted(self._window)
        return values[nearest_rank(len(values),
                                   self.config.hedge_percentile)]

    def _hedge_delay(self, shard: int = -1, replica: int = 0) -> float:
        cfg = self.config
        if cfg.hedge_delay > 0:
            return cfg.hedge_delay
        if cfg.hedge_percentile <= 0:
            return 0.0
        if self._completions < cfg.hedge_min_samples:
            return 0.0
        if self._digest is None or shard < 0:
            if self._hedge_cached < 0:
                self._hedge_cached = self._global_percentile()
            return self._hedge_cached
        key = (shard, replica)
        cached = self._hedge_by_key.get(key)
        if cached is None:
            learned = self._digest.percentile(
                shard, replica, cfg.hedge_percentile,
                cfg.digest_min_samples)
            if learned is None:
                # Shard still cold: the global window is the best
                # available prior.
                learned = self._global_percentile()
            cached = self._hedge_by_key[key] = self._trace_refine(learned)
        return cached

    def _trace_refine(self, delay: float) -> float:
        """Trim the live critical-path network + selector-wait share
        off a learned *delay*, when a tracer is running.

        Per-attempt latency includes the wire RTT and the send-side
        selector wait; service-side slowness is what a hedge to a
        sibling replica can actually beat (a slow *rack* should resolve
        via EWMA replica routing instead).  The mean sampled share of
        those categories is a deterministic function of the event
        history, so jobs=N stays float-identical.  Floored at half the
        learned delay so a network-dominated breakdown can tighten the
        hedge but never zero it.  This is the one sanctioned exception
        to "tracing is observation-only", and only under
        ``hedge_policy="attribution"`` with ``--trace``.
        """
        tracer = self.sim.tracer
        if tracer is None:
            return delay
        count = 0
        overhead = 0.0
        for agg in tracer.classes().values():
            count += agg.count
            sums = agg.sums
            overhead += sums["network"] + sums["selector_wait"]
        if count == 0:
            return delay
        refined = delay - overhead / count
        floor = 0.5 * delay
        return refined if refined > floor else floor

    # -- reporting ----------------------------------------------------------

    def learned_delays(self) -> Dict[int, float]:
        """Converged per-shard hedge delays (raw digest percentiles,
        before any trace refinement), for ``ExperimentResult`` export;
        empty unless ``hedge_policy="attribution"``."""
        if self._digest is None:
            return {}
        cfg = self.config
        return self._digest.learned_delays(cfg.hedge_percentile,
                                           cfg.digest_min_samples)

    COUNTERS = ("retries", "retry_wins", "hedges", "hedge_wins",
                "hedge_clamped", "deadline_misses", "failovers",
                "failed_subqueries", "duplicates")
