"""Tests for the parallel experiment runner.

The load-bearing property is *determinism*: fanning a grid out over
worker processes must produce results byte-identical to the serial
path, in the same (submission) order, because every exhibit's rendered
rows are assembled positionally from the result list.
"""

import dataclasses
import time

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (BatchExecutor, iter_experiments,
                                        resolve_jobs, run_experiments)


def _tiny_grid(seed=7):
    """A cheap but heterogeneous grid: three architectures, two
    concurrency levels."""
    return [ExperimentConfig(server=server, concurrency=conc, fanout=3,
                             response_size=100, warmup=0.2, duration=0.4,
                             seed=seed)
            for server in ("aio", "netty", "doubleface")
            for conc in (4, 16)]


class TestResolveJobs:
    def test_explicit_value_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_cpu_count(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) == resolve_jobs(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestSerialFallback:
    def test_empty_grid(self):
        assert run_experiments([], jobs=4) == []

    def test_single_config_stays_in_process(self):
        (result,) = run_experiments(_tiny_grid()[:1], jobs=4)
        assert result.completed > 0

    def test_preserves_submission_order(self):
        configs = _tiny_grid()
        results = run_experiments(configs, jobs=1)
        assert [r.config for r in results] == configs


class TestIterExperiments:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_is_yielded_with_its_position(self, jobs):
        """Every point comes back once, tagged with its submission
        position; a failed point yields its exception instead of
        raising, serially and over the pool."""
        configs = _tiny_grid()[:1] + [_poisoned_config()]
        outcomes = dict(iter_experiments(configs, jobs=jobs))
        assert sorted(outcomes) == [0, 1]
        assert outcomes[0].config == configs[0]
        assert isinstance(outcomes[1], TypeError)


class TestParallelDeterminism:
    """Same seed => identical ExperimentResult under jobs=1 vs jobs=4."""

    def test_parallel_equals_serial(self):
        configs = _tiny_grid(seed=11)
        serial = run_experiments(configs, jobs=1)
        parallel = run_experiments(_tiny_grid(seed=11), jobs=4)
        assert len(serial) == len(parallel)
        for ours, theirs in zip(serial, parallel):
            # Exact float equality, not approx: both sides replay the
            # same deterministic simulation.
            assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)

    def test_different_seeds_differ(self):
        # Sanity check that the equality above is not vacuous.
        a = run_experiments(_tiny_grid(seed=11)[:1], jobs=1)
        b = run_experiments(_tiny_grid(seed=12)[:1], jobs=1)
        assert a[0].throughput != b[0].throughput


def _poisoned_config():
    """A config that passes validation but blows up inside the worker:
    ``params`` overrides are checked at construction, so an unknown
    field name set afterwards reaches ``CostParams.with_overrides`` and
    raises there, at run time."""
    config = ExperimentConfig(server="doubleface", concurrency=4, fanout=3,
                              response_size=100, warmup=0.2, duration=0.4,
                              seed=7)
    config.params = {"no_such_param": 1}
    return config


class TestBatchExecutorErrorPaths:
    def test_poisoned_config_raises_in_worker(self):
        # Precondition for the tests below: the failure really happens
        # inside run_experiment, after config validation passed.
        with pytest.raises(TypeError):
            run_experiments([_poisoned_config()], jobs=1)

    def test_exit_terminates_pool_after_batch_error(self):
        """A failed batch must tear the pool down promptly instead of
        close()-joining behind queued work — the ``--exhibit all``
        hang fixed in this revision."""
        good = _tiny_grid()[:1]
        with pytest.raises(TypeError):
            with BatchExecutor(jobs=2) as executor:
                # Queue extra work so a graceful close() would have to
                # drain it; terminate() must not wait for these.
                for _ in range(16):
                    executor._pool.apply_async(time.sleep, (0.2,))
                executor.run(good + [_poisoned_config()] + good)
        # The pool is gone: further submissions fail immediately
        # rather than hanging.
        with pytest.raises(ValueError):
            executor._pool.apply_async(int)

    def test_clean_exit_still_closes_gracefully(self):
        with BatchExecutor(jobs=2) as executor:
            (result,) = executor.run(_tiny_grid()[:1])
            assert result.completed > 0
        with pytest.raises(ValueError):
            executor._pool.apply_async(int)
