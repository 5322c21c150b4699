"""Unit tests for the telemetry layer: :class:`GaugeBoard`,
:meth:`Simulator.call_every`, and the :class:`TelemetryTicker` on a
real run."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs import DEFAULT_OBS_PERIOD
from repro.sim.kernel import Simulator
from repro.sim.metrics import GaugeBoard


class TestGaugeBoard:
    def test_append_and_views(self):
        board = GaugeBoard(["a", "b"])
        board.append(0.1, [1.0, 2.0])
        board.append(0.2, [3.0, 4.0])
        assert len(board) == 2
        assert list(board.times) == [0.1, 0.2]
        assert list(board.column("a")) == [1.0, 3.0]
        assert list(board.column("b")) == [2.0, 4.0]
        assert list(board.as_dict()) == ["a", "b"]

    def test_value_count_must_match(self):
        board = GaugeBoard(["a", "b"])
        with pytest.raises(ValueError):
            board.append(0.1, [1.0])

    def test_time_must_not_go_backwards(self):
        board = GaugeBoard(["a"])
        board.append(0.2, [1.0])
        with pytest.raises(ValueError):
            board.append(0.1, [2.0])


class TestCallEvery:
    def test_fires_at_fixed_period(self):
        sim = Simulator()
        seen = []
        sim.call_every(0.25, seen.append)
        sim.run(until=1.0)
        assert seen == [0.25, 0.5, 0.75, 1.0]

    def test_period_must_be_positive_finite(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_every(0.0, lambda now: None)
        with pytest.raises(ValueError):
            sim.call_every(float("inf"), lambda now: None)


class TestTicker:
    def _run(self, **kw):
        return run_experiment(ExperimentConfig(
            concurrency=4, n_shards=4, fanout=2, warmup=0.1,
            duration=0.2, seed=13, obs=True, **kw))

    def test_result_carries_full_series(self):
        result = self._run()
        # ~30 ticks over warmup+window (workload drains at the end).
        assert len(result.obs_times) >= 25
        assert len(result.obs_values) == len(result.obs_names)
        assert all(len(col) == len(result.obs_times)
                   for col in result.obs_values)
        times = list(result.obs_times)
        assert times == sorted(times)
        assert times[0] == DEFAULT_OBS_PERIOD
        gauges = result.obs_gauges
        assert set(gauges) == set(result.obs_names)

    def test_base_gauge_vocabulary(self):
        result = self._run()
        names = result.obs_names
        assert names[:4] == ("cpu.runnable", "retry.rate", "hedge.rate",
                             "queued.total")
        assert [n for n in names if n.startswith("queued.shard")] == [
            f"queued.shard{i}" for i in range(4)]
        # Single-replica primary routing: no selector gauges.
        assert not any(n.startswith(("outstanding.", "ewma."))
                       for n in names)

    def test_ewma_gauges_appear_with_policy(self):
        result = self._run(replicas_per_shard=2, replica_policy="ewma")
        assert "ewma.shard0.r0" in result.obs_names
        assert "ewma.shard3.r1" in result.obs_names

    def test_outstanding_gauges_appear_with_policy(self):
        result = self._run(replicas_per_shard=2,
                           replica_policy="least_outstanding")
        assert "outstanding.shard0" in result.obs_names
        assert not any(n.startswith("ewma.") for n in result.obs_names)

    def test_defaults_off_records_nothing(self):
        result = run_experiment(ExperimentConfig(
            concurrency=4, n_shards=4, fanout=2, warmup=0.1,
            duration=0.2, seed=13))
        assert result.obs_names == ()
        assert len(result.obs_times) == 0
        assert result.phases == []
        assert result.flame is None

    def test_default_period_constant(self):
        assert DEFAULT_OBS_PERIOD == 0.01
