"""Tests for experiment configs and the runner."""

import dataclasses
import gc
import math

import pytest

from repro.experiments import figures
from repro.experiments.config import (DATASTORE_KINDS, SERVER_KINDS,
                                      ExperimentConfig)
from repro.experiments.runner import PERCENTILES, build_params, run_experiment
from repro.sim.kernel import Simulator


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.server in SERVER_KINDS
        assert config.datastore in DATASTORE_KINDS
        assert config.label == config.server

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(server="mystery")
        with pytest.raises(ValueError):
            ExperimentConfig(datastore="oracle")
        with pytest.raises(ValueError):
            ExperimentConfig(workload="batch")
        with pytest.raises(ValueError):
            ExperimentConfig(fanout=21, n_shards=20)
        with pytest.raises(ValueError):
            ExperimentConfig(lfan=5)  # sfan missing
        with pytest.raises(ValueError):
            ExperimentConfig(duration=0)

    @pytest.mark.parametrize("field, value", [
        ("think_time", math.nan),
        ("warmup", math.nan),
        ("warmup", math.inf),
        ("duration", math.nan),
        ("duration", math.inf),
        ("cross_rack_extra_latency", math.nan),
        ("thread_sample_period", math.nan),
        ("thread_sample_period", math.inf),
        ("thread_sample_period", -0.1),
    ])
    def test_non_finite_and_negative_rejected(self, field, value):
        """NaN passes ``x <= 0`` style guards, an infinite duration never
        ends, and a negative sample period was silently ignored."""
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    def test_build_params_overrides(self):
        config = ExperimentConfig(params={"app_cores": 4,
                                          "request_cpu": 1e-3})
        params = build_params(config)
        assert params.app_cores == 4
        assert params.request_cpu == 1e-3

    def test_build_params_hbase_slower(self):
        mongo = build_params(ExperimentConfig(datastore="mongodb"))
        hbase = build_params(ExperimentConfig(datastore="hbase"))
        assert hbase.point_lookup_mean > mongo.point_lookup_mean

    # One case each: quantum=0 hung run_experiment, quantum=nan returned
    # a result, shard_concurrency=0 completed nothing, and an unknown
    # name failed only at run time, inside a pool worker.
    @pytest.mark.parametrize("overrides, message", [
        ({"quantum": 0}, "must be > 0"),
        ({"quantum": math.nan}, "finite"),
        ({"shard_concurrency": 0}, "must be > 0"),
        ({"no_such_param": 1}, "unknown CostParams field"),
    ])
    def test_bad_param_overrides_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(params=overrides)

    def test_pool_size_plumbing(self):
        params = build_params(ExperimentConfig(
            params={"type1_pool_size": 8, "aio_pool_max": 9}))
        assert params.type1_pool_size == 8
        assert params.aio_pool_max == 9


class TestRunExperiment:
    @pytest.mark.parametrize("server", SERVER_KINDS)
    def test_every_server_kind_runs(self, server):
        config = ExperimentConfig(server=server, concurrency=5, fanout=3,
                                  warmup=0.1, duration=0.3)
        result = run_experiment(config)
        assert result.throughput > 0
        assert 0.0 <= result.cpu_utilization <= 1.001
        assert not math.isnan(result.percentiles[99.0])
        assert result.completed == pytest.approx(
            result.throughput * result.window)

    def test_finished_simulation_is_freed(self):
        """run_experiment collects the simulation's reference cycle
        before returning, instead of leaving it to the cyclic GC."""
        def simulators():
            return sum(isinstance(o, Simulator) for o in gc.get_objects())

        gc.collect()
        before = simulators()
        result = run_experiment(ExperimentConfig(
            concurrency=5, fanout=3, warmup=0.05, duration=0.1,
            trace=True, obs=True))
        assert result.throughput > 0
        assert simulators() == before

    def test_deterministic_across_runs(self):
        config = ExperimentConfig(concurrency=8, warmup=0.1, duration=0.3,
                                  seed=11)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.throughput == b.throughput
        assert a.percentiles == b.percentiles
        assert a.ctx_switches_per_sec == b.ctx_switches_per_sec

    def test_seed_changes_results(self):
        base = ExperimentConfig(concurrency=8, warmup=0.1, duration=0.3)
        a = run_experiment(base)
        b = run_experiment(ExperimentConfig(concurrency=8, warmup=0.1,
                                            duration=0.3, seed=99))
        # Closed-loop completion counts can coincide at low load; the
        # latency distribution reflects the different service draws.
        assert a.mean_rt != b.mean_rt

    def test_open_loop_runs(self):
        config = ExperimentConfig(workload="open", users=20, think_time=0.2,
                                  warmup=0.2, duration=0.5)
        result = run_experiment(config)
        assert result.throughput > 0

    def test_lfan_sfan_classes_reported(self):
        config = ExperimentConfig(lfan=5, sfan=3, concurrency=5,
                                  warmup=0.1, duration=0.4)
        result = run_experiment(config)
        assert "Lfan" in result.class_percentiles
        assert "Sfan" in result.class_percentiles
        for klass in ("Lfan", "Sfan"):
            for q in PERCENTILES:
                assert result.class_percentiles[klass][q] > 0

    def test_thread_sampler(self):
        config = ExperimentConfig(concurrency=5, warmup=0.1, duration=0.3,
                                  thread_sample_period=0.01)
        result = run_experiment(config)
        assert len(result.thread_samples) >= 25
        # Only the measurement window [warmup, warmup + duration).
        assert all(0.1 <= t < 0.4 for t, _n in result.thread_samples)

    def test_selector_stats_present_for_reactor_servers(self):
        config = ExperimentConfig(server="netty", concurrency=5,
                                  warmup=0.1, duration=0.3)
        result = run_experiment(config)
        names = {s["name"] for s in result.selector_stats}
        assert any("frontend" in n for n in names)
        assert any("backend" in n for n in names)

    def test_large_shards_slow_down_responses(self):
        small = run_experiment(ExperimentConfig(
            concurrency=5, warmup=0.1, duration=0.4))
        large = run_experiment(ExperimentConfig(
            concurrency=5, warmup=0.1, duration=0.4, large_shards=True))
        assert large.mean_rt > small.mean_rt

    def test_selector_stats_gated_by_config(self):
        """keep_selector_stats=False drops the raw dicts but keeps the
        aggregates computed from them."""
        kw = dict(server="netty", concurrency=5, warmup=0.1, duration=0.3)
        kept = run_experiment(ExperimentConfig(**kw))
        gated = run_experiment(ExperimentConfig(keep_selector_stats=False,
                                                **kw))
        assert gated.selector_stats == []
        assert gated.selects_per_sec == kept.selects_per_sec
        assert gated.selects_per_sec > 0
        assert gated.throughput == kept.throughput

    def test_full_tail_point_percentiles_are_exact(self):
        """A full-mode fig15 point reports the exact percentiles of its
        windowed samples: non-decreasing in q, and equal to the linear
        interpolation over the shipped ``latency_values``."""
        label, config = figures._fig15_points(False, 42)[0]
        result = run_experiment(dataclasses.replace(
            config, keep_latency_samples=True))
        values = sorted(result.latency_values)
        assert len(values) > 1000
        reported = [result.percentiles[q] for q in PERCENTILES]
        assert reported == sorted(reported), label
        for q in PERCENTILES:
            rank = q / 100.0 * (len(values) - 1)
            low = int(rank)
            high = min(low + 1, len(values) - 1)
            want = values[low] + (rank - low) * (values[high] - values[low])
            assert result.percentiles[q] == want, f"{label} p{q}"
