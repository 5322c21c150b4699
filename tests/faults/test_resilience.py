"""Unit tests for ResilienceConfig / ResiliencePolicy.

The policy is exercised against stub connections and a stub cluster so
each watchdog path (deadline, retry, hedge, synthesised failure) can be
asserted in isolation; the integration tests in ``tests/experiments``
cover the policy wired into real servers.
"""

import pytest

from repro.datastore.sharding import ReplicaSelector
from repro.faults import HEDGE_ATTEMPT, ResilienceConfig, ResiliencePolicy
from repro.messages import Query, QueryResponse
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.rng import RngStreams

NAN = float("nan")


class FakeEndpoint:
    def __init__(self):
        self.delivered = []

    def deliver(self, message):
        self.delivered.append(message)


class FakeConn:
    def __init__(self):
        self.endpoint_a = FakeEndpoint()
        self.sent = []

    def transmit(self, message, size, to_side):
        self.sent.append(message)

    def attach(self, side, endpoint):
        setattr(self, f"endpoint_{side}", endpoint)


class FakeCluster:
    def __init__(self, replicas_per_shard=2):
        self.replica_selector = ReplicaSelector("round_robin",
                                                replicas_per_shard)
        self.opened = []
        self._conns = {}

    def replica_connection(self, endpoint, shard_id, replica):
        key = (endpoint, shard_id, replica)
        if key not in self._conns:
            conn = self._conns[key] = FakeConn()
            conn.attach("a", endpoint)
            self.opened.append((shard_id, replica))
        return self._conns[key]


class FakeState:
    def __init__(self):
        self.session = None
        self.failed = 0


def make_policy(config, replicas=2):
    sim = Simulator()
    metrics = Metrics()
    cluster = FakeCluster(replicas_per_shard=replicas)
    policy = ResiliencePolicy(sim, metrics, config, RngStreams(42), cluster)
    return sim, metrics, cluster, policy


def make_query(seq=0, context=None):
    return Query(request_id=1, shard_id=3, op="get", response_size=100,
                 seq=seq, context=context)


def make_response(query, attempt=0, failed=False):
    return QueryResponse(request_id=query.request_id,
                         shard_id=query.shard_id,
                         payload_size=0 if failed else query.response_size,
                         seq=query.seq, context=query.context,
                         attempt=attempt, failed=failed)


class TestResilienceConfig:
    def test_default_is_inactive(self):
        assert not ResilienceConfig().active

    def test_activation(self):
        assert ResilienceConfig(subquery_deadline=1e-3).active
        assert ResilienceConfig(hedge_delay=1e-3).active
        assert ResilienceConfig(hedge_percentile=95.0).active

    @pytest.mark.parametrize("kwargs", [
        dict(subquery_deadline=-1.0),
        dict(max_retries=-1),
        dict(backoff_base=0.0),
        dict(backoff_base=2e-3, backoff_cap=1e-3),
        dict(backoff_jitter=1.0),
        dict(backoff_jitter=-0.1),
        dict(hedge_delay=-1e-3),
        dict(hedge_percentile=101.0),
        dict(hedge_min_samples=0),
        dict(hedge_policy="magic"),
        dict(hedge_policy="attribution"),  # needs hedge_percentile > 0
        dict(hedge_policy="attribution", hedge_percentile=95.0,
             digest_window=0),
        dict(hedge_policy="attribution", hedge_percentile=95.0,
             digest_min_samples=0),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(subquery_deadline=NAN), "subquery_deadline"),
        (dict(hedge_delay=NAN), "hedge_delay"),
        (dict(backoff_base=NAN), "backoff_base"),
        (dict(backoff_cap=NAN), "backoff_cap"),
    ])
    def test_validation_rejects_nan(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ResilienceConfig(**kwargs)


class TestDeadlineRetry:
    CONFIG = ResilienceConfig(subquery_deadline=1e-3, max_retries=2,
                              backoff_base=0.2e-3, backoff_cap=0.4e-3,
                              backoff_jitter=0.0)

    def test_response_before_deadline_wins_quietly(self):
        sim, metrics, _cluster, policy = make_policy(self.CONFIG)
        state = FakeState()
        policy.attach(state)
        conn = FakeConn()
        query = make_query(context=state)
        policy.arm(state, query, conn)
        assert policy.on_response(state, make_response(query))
        sim.run()
        assert metrics.raw_count("resilience.deadline_misses") == 0
        assert conn.sent == []

    def test_deadline_miss_retries_on_next_replica(self):
        sim, metrics, cluster, policy = make_policy(self.CONFIG)
        state = FakeState()
        policy.attach(state)
        conn = FakeConn()
        query = make_query(context=state)
        policy.arm(state, query, conn)
        sim.run(until=2e-3)
        assert metrics.raw_count("resilience.retries") == 1
        assert metrics.raw_count("resilience.failovers") == 1
        # The resend went out on a replica-1 connection, not the primary.
        assert conn.sent == []
        assert cluster.opened == [(query.shard_id, 1)]

    def test_retry_win_counted_and_duplicate_dropped(self):
        sim, metrics, _cluster, policy = make_policy(self.CONFIG)
        state = FakeState()
        policy.attach(state)
        query = make_query(context=state)
        policy.arm(state, query, FakeConn())
        sim.run(until=2e-3)  # one retry is in flight now
        retry_response = make_response(query, attempt=1)
        assert policy.on_response(state, retry_response)
        assert metrics.raw_count("resilience.retry_wins") == 1
        # The original response straggles in afterwards: stale.
        assert not policy.on_response(state, make_response(query))
        assert metrics.raw_count("resilience.duplicates") == 1

    def test_exhausted_retries_synthesise_failed_response(self):
        sim, metrics, _cluster, policy = make_policy(self.CONFIG)
        state = FakeState()
        policy.attach(state)
        conn = FakeConn()
        query = make_query(context=state)
        policy.arm(state, query, conn)
        sim.run()  # nothing ever answers
        assert metrics.raw_count("resilience.retries") == 2
        assert metrics.raw_count("resilience.failed_subqueries") == 1
        assert len(conn.endpoint_a.delivered) == 1
        synth = conn.endpoint_a.delivered[0]
        assert synth.failed and synth.payload_size == 0
        assert synth.seq == query.seq
        # Absorbing the synthetic response marks the request degraded.
        assert policy.on_response(state, synth)
        assert state.failed == 1


class TestHedging:
    def test_fixed_hedge_fires_and_win_is_counted(self):
        config = ResilienceConfig(hedge_delay=1e-3)
        sim, metrics, cluster, policy = make_policy(config)
        state = FakeState()
        policy.attach(state)
        query = make_query(context=state)
        policy.arm(state, query, FakeConn())
        sim.run(until=2e-3)
        assert metrics.raw_count("resilience.hedges") == 1
        assert cluster.opened == [(query.shard_id, 1)]
        assert policy.on_response(state,
                                  make_response(query, attempt=HEDGE_ATTEMPT))
        assert metrics.raw_count("resilience.hedge_wins") == 1
        # The loser (original) is stale.
        assert not policy.on_response(state, make_response(query))

    def test_hedge_suppressed_by_early_response(self):
        config = ResilienceConfig(hedge_delay=1e-3)
        sim, metrics, _cluster, policy = make_policy(config)
        state = FakeState()
        policy.attach(state)
        query = make_query(context=state)
        policy.arm(state, query, FakeConn())
        assert policy.on_response(state, make_response(query))
        sim.run()
        assert metrics.raw_count("resilience.hedges") == 0

    def test_adaptive_hedge_warms_up_from_observations(self):
        config = ResilienceConfig(hedge_percentile=90.0,
                                  hedge_min_samples=10)
        sim, _metrics, _cluster, policy = make_policy(config)
        assert policy._hedge_delay() == 0.0  # cold: no hedging yet
        state = FakeState()
        policy.attach(state)
        conn = FakeConn()
        for seq in range(10):
            query = make_query(seq=seq, context=state)
            policy.arm(state, query, conn)
            # arm() is a no-op pre-warm-up (no deadline, hedge 0), so
            # feed the observation window directly.
            policy._observe(1e-3 * (seq + 1))
        delay = policy._hedge_delay()
        # Nearest-rank p90 over 1..10 ms: ceil(10 * 0.9) = rank 9, i.e.
        # the 9 ms sample (the old ``int(n*p/100)`` rank sat one above
        # the requested percentile and returned 10 ms here).
        assert delay == pytest.approx(1e-3 * 9)

    def test_unarmed_response_passes_through(self):
        config = ResilienceConfig(hedge_percentile=90.0,
                                  hedge_min_samples=10)
        _sim, metrics, _cluster, policy = make_policy(config)
        state = FakeState()
        policy.attach(state)
        query = make_query(context=state)
        policy.arm(state, query, FakeConn())  # no-op: not warmed up
        assert query.seq not in state.session
        assert policy.on_response(state, make_response(query))
        assert metrics.raw_count("resilience.duplicates") == 0

    def test_failed_responses_do_not_pollute_hedge_window(self):
        """Regression: synthesised-failure 'latencies' (deadline x
        retries, an order of magnitude above real completions) must not
        enter the adaptive-hedge window.  Pre-fix, a burst of failures
        dragged the p95 up to the deadline and stopped hedges from
        firing exactly when they were needed most."""
        config = ResilienceConfig(subquery_deadline=5e-3, max_retries=0,
                                  hedge_percentile=95.0,
                                  hedge_min_samples=50)
        sim, _metrics, _cluster, policy = make_policy(config)
        for _ in range(50):
            policy._observe(1e-3)  # healthy completions: 1 ms
        assert policy._hedge_delay() == pytest.approx(1e-3)
        state = FakeState()
        policy.attach(state)
        conn = FakeConn()
        # A crash window: more sub-queries than the REFRESH period all
        # time out and synthesise failures.
        n = 2 * policy.REFRESH
        for seq in range(n):
            policy.arm(state, make_query(seq=seq, context=state), conn)
        sim.run()  # every deadline expires, no retries left
        assert len(conn.endpoint_a.delivered) == n
        for synth in conn.endpoint_a.delivered:
            assert synth.failed
            assert policy.on_response(state, synth)
        assert state.failed == n
        # The window still reflects only the healthy completions.
        assert policy._hedge_delay() == pytest.approx(1e-3)

    def test_concurrent_hedges_rotate_replicas(self):
        """Two sub-queries hedging at the same time must go to
        *different* replicas (the old hard-coded failover_replica(1, .)
        stampeded every concurrent hedge onto replica 1)."""
        config = ResilienceConfig(hedge_delay=1e-3)
        sim, metrics, cluster, policy = make_policy(config, replicas=3)
        state = FakeState()
        policy.attach(state)
        policy.arm(state, make_query(seq=0, context=state), FakeConn())
        policy.arm(state, make_query(seq=1, context=state), FakeConn())
        sim.run(until=2e-3)
        assert metrics.raw_count("resilience.hedges") == 2
        assert cluster.opened == [(3, 1), (3, 2)]


class TestPerAttemptObservation:
    """Headline regression: the adaptive hedge must learn *per-attempt*
    latency (winning-attempt wire send -> arrival, via the response's
    echoed ``sent_at`` stamp), never original-send-relative latency.

    Pre-fix, ``on_response`` fed ``now - tracker.sent_at`` into the
    percentile window; a hedge win's "latency" then included the hedge
    delay itself, so each REFRESH recomputed a higher delay from its own
    previous output — a positive feedback loop that ratcheted the
    learned delay toward the deadline exactly when hedging mattered."""

    HEALTHY = 1e-3       # healthy-replica per-attempt latency
    DEADLINE = 50e-3     # far above anything the loop can ratchet to

    def _converged_policy(self):
        config = ResilienceConfig(subquery_deadline=self.DEADLINE,
                                  max_retries=0, backoff_jitter=0.0,
                                  hedge_percentile=95.0,
                                  hedge_min_samples=50)
        sim, metrics, cluster, policy = make_policy(config)
        for _ in range(policy.WINDOW):   # healthy completions: 1 ms
            policy._observe(self.HEALTHY)
        assert policy._hedge_delay() == pytest.approx(self.HEALTHY)
        return sim, metrics, cluster, policy

    def test_steady_slow_shard_converges_to_healthy_percentile(self):
        """Steady 10x-slow shard: the primary never answers first, every
        win is a hedge to the healthy replica.  The cached hedge delay
        must stay at ~the healthy-replica percentile (pre-fix it
        ratcheted up by ~one hedge delay per REFRESH period)."""
        sim, metrics, _cluster, policy = self._converged_policy()
        state = FakeState()
        policy.attach(state)
        conn = FakeConn()
        rounds = 6 * policy.REFRESH
        for seq in range(rounds):
            start = sim.now
            query = make_query(seq=seq, context=state)
            policy.arm(state, query, conn)
            delay = policy._hedge_delay()
            assert 0.0 < delay < self.DEADLINE
            sim.run(until=start + delay)          # the hedge fires
            response = make_response(query, attempt=HEDGE_ATTEMPT)
            # Wire stamp of the winning (hedged) attempt, as
            # Connection.transmit restamps it at hedge-send time.
            response.sent_at = start + delay
            sim.run(until=start + delay + self.HEALTHY)
            assert policy.on_response(state, response)
        assert metrics.raw_count("resilience.hedges") == rounds
        # The learned delay reflects per-attempt latency, not the
        # compounding (delay + attempt) sums of the old feedback loop,
        # which by now would have ratcheted past 4 ms on its way to the
        # deadline.
        assert policy._hedge_delay() == pytest.approx(self.HEALTHY)

    def test_retry_win_observes_attempt_latency(self):
        """A retry win's observation is measured from the *retry's*
        wire send, not the original send (which would fold the deadline
        plus backoff into the learned percentile)."""
        config = ResilienceConfig(subquery_deadline=1e-3, max_retries=1,
                                  backoff_base=0.2e-3, backoff_cap=0.2e-3,
                                  backoff_jitter=0.0,
                                  hedge_percentile=95.0,
                                  hedge_min_samples=500)
        sim, metrics, cluster, policy = make_policy(config)
        state = FakeState()
        policy.attach(state)
        query = make_query(context=state)
        policy.arm(state, query, FakeConn())
        sim.run(until=1.5e-3)   # deadline missed, retry transmitted
        assert metrics.raw_count("resilience.retries") == 1
        retry_sent = 1.2e-3     # deadline (1 ms) + backoff (0.2 ms)
        healthy = 0.5e-3
        response = make_response(query, attempt=1)
        response.sent_at = retry_sent
        sim.run(until=retry_sent + healthy)
        assert policy.on_response(state, response)
        assert len(policy._window) == 1
        # Per-attempt: 0.5 ms.  Original-send-relative would be 1.7 ms.
        assert policy._window[0] == pytest.approx(healthy)

    def test_unstamped_response_falls_back_to_arm_time(self):
        """Stub responses without a wire stamp (sent_at == 0) still get
        a sane observation: latency relative to the arm time."""
        config = ResilienceConfig(subquery_deadline=10e-3,
                                  hedge_percentile=95.0,
                                  hedge_min_samples=500)
        sim, _metrics, _cluster, policy = make_policy(config)
        state = FakeState()
        policy.attach(state)
        query = make_query(context=state)
        policy.arm(state, query, FakeConn())
        sim.run(until=2e-3)
        assert policy.on_response(state, make_response(query))
        assert policy._window[0] == pytest.approx(2e-3)


class TestNearestRankPercentile:
    """Regression: ``int(n * p / 100)`` sits one rank above the
    requested nearest-rank percentile; the fix is ``ceil(n*p/100) - 1``."""

    def _delay(self, percentile, samples, min_samples=1):
        config = ResilienceConfig(hedge_percentile=percentile,
                                  hedge_min_samples=min_samples)
        _sim, _metrics, _cluster, policy = make_policy(config)
        for value in samples:
            policy._observe(value)
        return policy._hedge_delay()

    def test_p50_of_two_samples_is_lower_value(self):
        # Pre-fix: int(2 * 0.5) = rank 1 = the max.
        assert self._delay(50.0, [1e-3, 9e-3]) == pytest.approx(1e-3)

    def test_single_sample_any_percentile(self):
        assert self._delay(50.0, [3e-3]) == pytest.approx(3e-3)
        assert self._delay(100.0, [3e-3]) == pytest.approx(3e-3)

    def test_p100_is_max(self):
        assert self._delay(100.0, [1e-3, 2e-3, 9e-3]) == pytest.approx(9e-3)

    def test_p95_of_100_samples_is_95th_rank(self):
        samples = [1e-3 * (i + 1) for i in range(100)]
        # Nearest rank ceil(100 * 0.95) = 95 -> the 95 ms sample
        # (pre-fix rank 96).
        assert self._delay(95.0, samples) == pytest.approx(95e-3)


class TestHedgeDeadlineClamp:
    """Regression: a learned/fixed hedge delay >= the sub-query deadline
    used to *silently disable* hedging (the ``hedge < deadline`` guard).
    It must clamp to fire before the deadline, observably."""

    def test_hedge_at_or_past_deadline_clamps(self):
        config = ResilienceConfig(subquery_deadline=1e-3, max_retries=1,
                                  backoff_base=0.2e-3, backoff_cap=0.4e-3,
                                  backoff_jitter=0.0, hedge_delay=2e-3)
        sim, metrics, cluster, policy = make_policy(config)
        state = FakeState()
        policy.attach(state)
        query = make_query(context=state)
        policy.arm(state, query, FakeConn())
        sim.run(until=0.9e-3)   # before the deadline
        assert metrics.raw_count("resilience.hedges") == 1
        assert metrics.raw_count("resilience.hedge_clamped") == 1
        assert cluster.opened == [(query.shard_id, 1)]

    def test_hedge_below_deadline_not_clamped(self):
        config = ResilienceConfig(subquery_deadline=1e-3, max_retries=1,
                                  backoff_base=0.2e-3, backoff_cap=0.4e-3,
                                  backoff_jitter=0.0, hedge_delay=0.4e-3)
        sim, metrics, _cluster, policy = make_policy(config)
        state = FakeState()
        policy.attach(state)
        policy.arm(state, make_query(context=state), FakeConn())
        sim.run(until=0.9e-3)
        assert metrics.raw_count("resilience.hedges") == 1
        assert metrics.raw_count("resilience.hedge_clamped") == 0


class FakeAgg:
    def __init__(self, count, network, selector_wait):
        self.count = count
        self.sums = {"network": network, "service": 0.0, "cpu_queue": 0.0,
                     "selector_wait": selector_wait, "retry_hedge": 0.0,
                     "driver": 0.0}


class FakeTracer:
    def __init__(self, aggs):
        self._aggs = aggs

    def classes(self):
        return self._aggs


class TestAttributionPolicy:
    CONFIG = ResilienceConfig(hedge_percentile=90.0, hedge_min_samples=10,
                              hedge_policy="attribution",
                              digest_min_samples=8)

    def test_per_shard_delays_diverge(self):
        """Attribution answers each shard from its own digest; cold
        shards fall back to the global window."""
        _sim, _metrics, _cluster, policy = make_policy(self.CONFIG)
        for _ in range(16):
            policy._observe(1e-3)
            policy._digest.observe(0, 0, 1e-3)
            policy._digest.observe(1, 0, 4e-3)
        assert policy._hedge_delay(0, 0) == pytest.approx(1e-3)
        assert policy._hedge_delay(1, 0) == pytest.approx(4e-3)
        # Shard 5 has no digest samples: global window answers.
        assert policy._hedge_delay(5, 0) == pytest.approx(1e-3)
        delays = policy.learned_delays()
        assert delays[0] == pytest.approx(1e-3)
        assert delays[1] == pytest.approx(4e-3)
        assert 5 not in delays

    def test_winning_response_feeds_digest(self):
        config = ResilienceConfig(subquery_deadline=50e-3,
                                  hedge_percentile=95.0,
                                  hedge_policy="attribution")
        sim, _metrics, _cluster, policy = make_policy(config)
        state = FakeState()
        policy.attach(state)
        query = make_query(context=state)
        policy.arm(state, query, FakeConn())
        sim.run(until=2e-3)
        response = make_response(query)
        response.sent_at = 0.5e-3
        response.replica = 0
        assert policy.on_response(state, response)
        assert policy._digest.observations == 1
        # Keyed by the responding (shard, replica), per-attempt latency.
        ring = policy._digest._rings[(query.shard_id, 0)]
        assert ring.values == [pytest.approx(1.5e-3)]

    def test_trace_refinement_trims_network_share(self):
        sim, _metrics, _cluster, policy = make_policy(self.CONFIG)
        # 4 sampled requests spending a mean 0.5 ms in network +
        # selector wait: the learned delay shrinks by exactly that.
        sim.tracer = FakeTracer(
            {"default": FakeAgg(4, network=4 * 0.4e-3,
                                selector_wait=4 * 0.1e-3)})
        assert policy._trace_refine(2e-3) == pytest.approx(1.5e-3)

    def test_trace_refinement_floors_at_half(self):
        sim, _metrics, _cluster, policy = make_policy(self.CONFIG)
        sim.tracer = FakeTracer(
            {"default": FakeAgg(4, network=4 * 5e-3, selector_wait=0.0)})
        # Network dominates the breakdown: the refinement may tighten
        # the hedge but never zero (or negate) it.
        assert policy._trace_refine(2e-3) == pytest.approx(1e-3)

    def test_untraced_refinement_is_identity(self):
        _sim, _metrics, _cluster, policy = make_policy(self.CONFIG)
        assert policy._trace_refine(2e-3) == pytest.approx(2e-3)


class TestSessionCleanup:
    CONFIG = ResilienceConfig(subquery_deadline=1e-3, max_retries=1,
                              backoff_base=0.2e-3, backoff_cap=0.4e-3,
                              backoff_jitter=0.0)

    def test_win_frees_tracker_and_remembers_seq(self):
        """The winning response must delete its session entry (the map
        otherwise grows for the life of the request) while keeping the
        seq recognisable as already-won."""
        _sim, metrics, _cluster, policy = make_policy(self.CONFIG)
        state = FakeState()
        policy.attach(state)
        query = make_query(context=state)
        policy.arm(state, query, FakeConn())
        assert query.seq in state.session
        assert policy.on_response(state, make_response(query))
        assert state.session == {}
        assert query.seq in state.won
        # A hedge loser straggling in after the cleanup is still stale.
        assert not policy.on_response(state, make_response(query))
        assert metrics.raw_count("resilience.duplicates") == 1

    def test_seq_reuse_after_win_arms_fresh_tracker(self):
        """Once a sub-query's win is absorbed and its entry freed, the
        same seq can be armed again (a fresh request attaches a fresh
        state, so clearing the won-set stands in for re-attach here)."""
        sim, metrics, _cluster, policy = make_policy(self.CONFIG)
        state = FakeState()
        policy.attach(state)
        query = make_query(context=state)
        policy.arm(state, query, FakeConn())
        assert policy.on_response(state, make_response(query))
        state.won.clear()
        policy.arm(state, query, FakeConn())
        assert query.seq in state.session
        assert policy.on_response(state, make_response(query))
        sim.run()
        assert metrics.raw_count("resilience.deadline_misses") == 0
