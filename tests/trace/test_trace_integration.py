"""Whole-system guarantees for repro.trace.

Four load-bearing properties:

1. **Observation only.**  A traced run's *measured* results are
   float-identical to the same run untraced: the sampler draws from its
   own named RNG stream and no hook feeds back into simulation
   behaviour.  (Tracing *off* is pinned even harder — byte-identical —
   by the pre-existing golden-tab2 test, since ``trace`` defaults off.)
2. **Determinism across workers.**  ``trace_summary`` is a pure
   function of the config seed: ``jobs=1`` equals ``jobs=4`` with the
   results pickled over the pool pipe, float for float.
3. **Exact additivity on real traces.**  Every exemplar from a real
   multi-architecture run re-subtracts to exactly ``0.0``.
4. **Tail attribution.**  Under an injected slow shard, the slowest
   exemplars sit at/above p99 and charge the miss to the retry/hedge
   machinery of the critical sub-query — the paper-facing "where did
   my p99 go" answer.
"""

import dataclasses
from multiprocessing import shared_memory

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_experiments
from repro.experiments.runner import run_experiment
from repro.faults import FaultConfig, ResilienceConfig
from repro.trace import CATEGORIES, additivity_residual
from repro.trace.spans import EXEMPLARS


def _config(server="doubleface", **kw):
    base = dict(server=server, concurrency=12, fanout=4, response_size=100,
                warmup=0.2, duration=0.5, seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


def _measured_fields(result):
    """Everything except the observation outputs themselves."""
    fields = dataclasses.asdict(result)
    for observational in ("trace_summary", "config", "flame", "phases",
                          "obs_names", "obs_times", "obs_values"):
        fields.pop(observational)
    return fields


class TestObservationOnly:
    @pytest.mark.parametrize("server", ["doubleface", "netty", "aio",
                                        "type1", "threadbased"])
    def test_traced_run_measures_identically(self, server):
        untraced = run_experiment(_config(server))
        traced = run_experiment(_config(server, trace=True,
                                        trace_sample=0.5))
        assert traced.trace_summary is not None
        assert traced.trace_summary["sampled"] > 0
        assert _measured_fields(traced) == _measured_fields(untraced)

    def test_untraced_run_carries_no_summary(self):
        assert run_experiment(_config()).trace_summary is None

    def test_sample_rate_scales_the_sampled_set(self):
        full = run_experiment(_config(trace=True, trace_sample=1.0))
        thin = run_experiment(_config(trace=True, trace_sample=0.1))
        n_full = full.trace_summary["sampled"]
        n_thin = thin.trace_summary["sampled"]
        assert n_full == full.completed
        assert 0 < n_thin < n_full


class TestWorkerDeterminism:
    def _grid(self):
        return [_config(server, trace=True, trace_sample=0.5)
                for server in ("doubleface", "netty", "aio")]

    def test_jobs4_shm_equals_serial(self, monkeypatch):
        """Pooled trace results never need shared memory: with it
        refused, ``jobs=4`` still equals serial."""
        def refuse(*args, **kwargs):
            raise OSError("shared memory is not available")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        serial = run_experiments(self._grid(), jobs=1)
        parallel = run_experiments(self._grid(), jobs=4)
        for ours, theirs in zip(serial, parallel):
            assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)

    def test_jobs4_pickle_equals_serial(self):
        """The default pooled path (results pickled over the pool pipe)
        equals serial."""
        serial = run_experiments(self._grid()[:2], jobs=1)
        parallel = run_experiments(self._grid()[:2], jobs=4)
        for ours, theirs in zip(serial, parallel):
            assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)


class TestRealTraceAdditivity:
    @pytest.mark.parametrize("server", ["doubleface", "netty", "aio",
                                        "type1", "threadbased"])
    def test_exemplars_resubtract_to_exact_zero(self, server):
        result = run_experiment(_config(server, trace=True,
                                        trace_sample=1.0))
        summary = result.trace_summary
        checked = 0
        for entry in summary["classes"].values():
            # Per-class sums are additive to float-sum accuracy (each
            # trace is exact; the aggregation reorders the additions).
            total = sum(entry["breakdown"][c] for c in CATEGORIES)
            assert total == pytest.approx(entry["rt_sum"], rel=1e-9)
            for exemplar in entry["exemplars"]:
                assert additivity_residual(
                    exemplar["rt"], exemplar["breakdown"]) == 0.0
                assert exemplar["spans"], "exemplars keep full span lists"
                checked += 1
        assert checked > 0

    def test_mean_rt_matches_trace_aggregate_at_full_sampling(self):
        result = run_experiment(_config(trace=True, trace_sample=1.0))
        entry = result.trace_summary["classes"]["default"]
        assert entry["count"] == result.completed
        assert entry["rt_sum"] / entry["count"] == \
            pytest.approx(result.mean_rt, rel=1e-9)


class TestFaultTailAttribution:
    def test_slow_shard_tail_charged_to_retry_hedge(self):
        faults = FaultConfig(slow_shards=2, slow_factor=100.0,
                             slow_mean_on=0.3, slow_mean_off=0.2)
        resilience = ResilienceConfig(subquery_deadline=5e-3,
                                      max_retries=2, backoff_base=0.5e-3,
                                      backoff_cap=2e-3,
                                      hedge_percentile=95.0,
                                      hedge_min_samples=50)
        result = run_experiment(_config(
            concurrency=16, fanout=5, duration=0.8, faults=faults,
            resilience=resilience, replicas_per_shard=2, trace=True,
            trace_sample=1.0))
        # Not vacuous: the resilience machinery fired.  (Since the
        # per-attempt latency fix the learned hedge converges near the
        # healthy percentile, so hedges rescue slow sub-queries before
        # the 5 ms deadline can schedule a retry.)
        assert result.fault_counters.get("resilience.hedges", 0) > 0
        assert result.fault_counters.get("resilience.hedge_wins", 0) > 0
        p99 = result.percentiles[99.0]
        exemplars = result.trace_summary["classes"]["default"]["exemplars"]
        assert len(exemplars) == EXEMPLARS
        slowest = exemplars[0]
        assert slowest["rt"] >= p99
        # The critical sub-query needed more than one wire attempt, and
        # the time lost waiting out the slow shard before the winning
        # resend is the single largest category.  (It no longer exceeds
        # half the rt: the converged hedge fires around 1.7 ms, well
        # before the 5 ms deadline, so the whole tail is shorter.)
        assert slowest["attempts"] >= 2
        breakdown = slowest["breakdown"]
        assert breakdown["retry_hedge"] == max(
            breakdown[c] for c in CATEGORIES)
        assert breakdown["retry_hedge"] > 0.25 * slowest["rt"]


class TestEwmaCrossRackRouting:
    def _run(self, policy):
        return run_experiment(_config(
            duration=1.2, warmup=0.4, replicas_per_shard=2, racks=2,
            replica_policy=policy, cross_rack_extra_latency=0.5e-3,
            trace=True, trace_sample=0.5))

    def test_ewma_learns_the_near_replica(self):
        primary = self._run("primary")
        ewma = self._run("ewma")
        assert ewma.mean_rt < primary.mean_rt
        # The win shows up exactly where the tracer says it should:
        # the per-request network share collapses once routing stops
        # paying the cross-rack spine tax on half the sub-queries.
        def net_per_request(result):
            entry = result.trace_summary["classes"]["default"]
            return entry["breakdown"]["network"] / entry["count"]
        assert net_per_request(ewma) < 0.5 * net_per_request(primary)
