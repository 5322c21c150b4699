"""Integration guarantees for the repro.faults subsystem.

Three load-bearing properties:

1. **Zero cost when off.**  With ``faults=None`` / ``resilience=None``
   (the defaults), every pre-existing exhibit must render byte-identical
   output to the pre-faults codebase — pinned by the tab2 golden
   (``golden/tab2.json``), whose text was recorded before the
   subsystem landed.
2. **Determinism under faults.**  An active :class:`FaultConfig` plus
   :class:`ResilienceConfig` must stay float-identical between
   ``jobs=1`` and ``jobs=4``: fault windows and jitter come from named
   ``RngStreams``, never from wall-clock or process identity.
3. **Config validation.**  Bad shapes fail fast at construction with
   actionable messages.
"""

import dataclasses

import pytest

from repro.experiments import run_exhibits
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_experiments
from repro.faults import FaultConfig, ResilienceConfig
from tests.experiments import goldens


class TestGoldenWithFaultsOff:
    def test_tab2_byte_identical_to_pre_faults_golden(self):
        result = run_exhibits(["tab2"], quick=True, seed=42, jobs=1)["tab2"]
        assert goldens.exhibit_record(result) == goldens.load("tab2")


def _fault_grid(seed=11):
    """A cheap grid with every resilience mechanism engaged."""
    faults = FaultConfig(slow_shards=2, slow_factor=100.0,
                         slow_mean_on=0.2, slow_mean_off=0.3)
    resilience = ResilienceConfig(subquery_deadline=5e-3, max_retries=2,
                                  backoff_base=0.5e-3, backoff_cap=2e-3,
                                  hedge_percentile=95.0,
                                  hedge_min_samples=50)
    return [ExperimentConfig(server=server, concurrency=16, fanout=5,
                             response_size=100, warmup=0.2, duration=0.5,
                             seed=seed, faults=faults,
                             resilience=resilience, replicas_per_shard=2)
            for server in ("doubleface", "netty", "aio")]


def _rack_grid(seed=11):
    """A cheap grid with replica-aware routing engaged on top of
    correlated rack faults — the full routing/hedging/failover path."""
    faults = FaultConfig(rack_slow_racks=1, rack_slow_factor=100.0,
                         rack_slow_mean_on=0.15, rack_slow_mean_off=0.15)
    resilience = ResilienceConfig(subquery_deadline=5e-3, max_retries=2,
                                  backoff_base=0.5e-3, backoff_cap=2e-3,
                                  hedge_percentile=95.0,
                                  hedge_min_samples=50)
    return [ExperimentConfig(server=server, concurrency=16, fanout=5,
                             response_size=100, warmup=0.2, duration=0.5,
                             seed=seed, faults=faults,
                             resilience=resilience, replicas_per_shard=2,
                             racks=2, replica_policy="least_outstanding")
            for server in ("doubleface", "netty", "aio", "type1",
                           "threadbased")]


class TestFaultDeterminism:
    def test_fault_grid_parallel_equals_serial(self):
        serial = run_experiments(_fault_grid(), jobs=1)
        parallel = run_experiments(_fault_grid(), jobs=4)
        for ours, theirs in zip(serial, parallel):
            assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)

    def test_faults_engage(self):
        # The determinism assertion above must not be vacuously about a
        # fault-free run: the resilience machinery actually fired.
        # (Since the per-attempt latency fix the learned hedge delay
        # converges near the healthy percentile — well under the 5 ms
        # deadline — so the engaged mechanism here is hedging, which
        # rescues slow sub-queries before any deadline can fire.)
        (result,) = run_experiments(_fault_grid()[:1], jobs=1)
        counters = result.fault_counters
        assert counters.get("resilience.hedges", 0) > 0
        assert counters.get("resilience.hedge_wins", 0) > 0

    def test_hedging_exhibit_parallel_equals_serial(self):
        serial = run_exhibits(["hedging"], quick=True, seed=42,
                              jobs=1)["hedging"]
        parallel = run_exhibits(["hedging"], quick=True, seed=42,
                                jobs=4)["hedging"]
        assert serial.text == parallel.text
        assert serial.data == parallel.data

    def test_rack_grid_parallel_equals_serial(self):
        """Replica-aware routing under rack faults is still a pure
        function of the seed: the selector's cursors and in-flight
        counts live inside the worker, never shared across processes."""
        serial = run_experiments(_rack_grid(), jobs=1)
        parallel = run_experiments(_rack_grid(), jobs=4)
        for ours, theirs in zip(serial, parallel):
            assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)

    def test_rack_grid_engages_routing(self):
        # Not vacuous: rack windows slowed queries, hedges crossed to
        # the other rack, and failovers rotated replicas.
        results = run_experiments(_rack_grid(), jobs=1)
        for result in results:
            counters = result.fault_counters
            assert counters.get("faults.rack_slowed_queries", 0) > 0, \
                result.config.server
            assert counters.get("resilience.hedges", 0) > 0, \
                result.config.server


def _attribution_grid(seed=11):
    """Rack-fault grid with ``hedge_policy="attribution"``: the
    per-(shard, replica) digest feeds per-shard hedge delays, layered
    on routing, failover, and backoff jitter."""
    faults = FaultConfig(rack_slow_racks=1, rack_slow_factor=100.0,
                         rack_slow_mean_on=0.15, rack_slow_mean_off=0.15)
    resilience = ResilienceConfig(subquery_deadline=5e-3, max_retries=2,
                                  backoff_base=0.5e-3, backoff_cap=2e-3,
                                  hedge_percentile=95.0,
                                  hedge_min_samples=50,
                                  hedge_policy="attribution",
                                  digest_min_samples=16)
    return [ExperimentConfig(server=server, concurrency=16, fanout=5,
                             response_size=100, warmup=0.2, duration=0.5,
                             seed=seed, faults=faults,
                             resilience=resilience, replicas_per_shard=2,
                             racks=2, replica_policy="least_outstanding")
            for server in ("doubleface", "netty", "aio")]


class TestAttributionDeterminism:
    def test_attribution_grid_parallel_equals_serial(self):
        """The attribution digest is plain float arithmetic on the
        winning attempts' wire stamps — no RNG, no wall clock — so
        jobs=1 and jobs=4 over the columnar result transport stay
        float-identical, learned per-shard delays included."""
        serial = run_experiments(_attribution_grid(), jobs=1)
        parallel = run_experiments(_attribution_grid(), jobs=4)
        for ours, theirs in zip(serial, parallel):
            assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)

    def test_attribution_engages_and_exports_delays(self):
        # Not vacuous: hedges fired, and the digest converged enough to
        # export per-shard delays through the result.
        (result,) = run_experiments(_attribution_grid()[:1], jobs=1)
        assert result.fault_counters.get("resilience.hedges", 0) > 0
        assert result.hedge_delays
        assert all(delay > 0 for delay in result.hedge_delays.values())

    def test_adaptive_hedge_exhibit_parallel_equals_serial(self):
        serial = run_exhibits(["adaptive_hedge"], quick=True, seed=42,
                              jobs=1)["adaptive_hedge"]
        parallel = run_exhibits(["adaptive_hedge"], quick=True, seed=42,
                                jobs=4)["adaptive_hedge"]
        assert serial.text == parallel.text
        assert serial.data == parallel.data


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(concurrency=0),
        dict(concurrency=-4),
        dict(fanout=0),
        dict(response_size=0),
        dict(n_shards=0),
        dict(users=0),
        dict(think_time=0.0),
        dict(replicas_per_shard=0),
        dict(racks=0),
        dict(replica_policy="sticky"),
    ])
    def test_bad_shapes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(server="doubleface", **kwargs)

    def test_unknown_server_lists_valid_kinds(self):
        with pytest.raises(ValueError, match="valid:.*doubleface"):
            ExperimentConfig(server="tomcat")

    def test_unknown_replica_policy_lists_valid_policies(self):
        with pytest.raises(ValueError, match="least_outstanding"):
            ExperimentConfig(server="doubleface", replica_policy="sticky")
