"""The benchmark's own checks.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import cProfile
import dataclasses
import pstats
import shutil
import subprocess
import sys

import pytest

from check import digest, invariant_errors, load_reference
from layers import LAYERS, OTHER, LayerFold, map_problems
from run import HERE, SRC, import_repro
from workloads import WORKLOADS

assert import_repro() is None


def _tiny_result(**overrides):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment
    config = dict(server="doubleface", concurrency=10, warmup=0.01,
                  duration=0.02, seed=3)
    config.update(overrides)
    return run_experiment(ExperimentConfig(**config))


def test_every_module_is_mapped_exactly_once():
    unmapped, twice, absent = map_problems(SRC)
    assert unmapped == [], f"modules with no layer: {unmapped}"
    assert twice == [], f"modules in two layers: {twice}"
    assert absent == [], f"mapped modules that do not exist: {absent}"


def test_digest_is_repr_exact():
    result = _tiny_result()
    assert digest(result) == digest(_tiny_result())
    moved = dataclasses.replace(
        result, mean_rt=result.mean_rt + 1e-15 * result.mean_rt)
    assert moved.mean_rt != result.mean_rt
    assert digest(moved) != digest(result)


@pytest.mark.parametrize("change, message", [
    (dict(completed=0.0), "completed"),
    (dict(percentiles={50.0: 2e-3, 99.0: 1e-3}), "non-decreasing"),
    (dict(fault_counters={"resilience.hedges": 1.0,
                          "resilience.hedge_wins": 2.0}), "hedge_wins"),
    (dict(fault_counters={"resilience.retries": -1.0}), "< 0"),
])
def test_invariants_catch_broken_results(change, message):
    result = _tiny_result()
    assert invariant_errors(result) == []
    errors = invariant_errors(dataclasses.replace(result, **change))
    assert any(message in e for e in errors), errors


def test_fold_accounts_for_all_profiled_time():
    profile = cProfile.Profile()
    profile.enable()
    _tiny_result()
    profile.disable()
    stats = pstats.Stats(profile)
    fold = LayerFold(stats.stats, SRC)
    self_s = fold.self_times()
    assert set(self_s) == set(LAYERS) | {OTHER}
    assert sum(self_s.values()) == pytest.approx(stats.total_tt, rel=1e-9)
    assert self_s["sim.kernel"] > 0 and self_s["core"] > 0
    assert fold.unmapped == set()
    from repro.sim.kernel import Simulator
    assert fold.calls(Simulator.run) == 2  # warm-up, then the window


def test_reference_covers_every_workload_and_seed():
    from check import REFERENCE_SEEDS
    for name, workload in WORKLOADS.items():
        for seed in REFERENCE_SEEDS:
            stored = load_reference(name, seed)
            assert stored is not None, (name, seed)
            assert len(stored) == len(workload.configs(seed))


def test_reference_matches_closed_small_at_default_seed():
    from run import run_serial
    results, _walls = run_serial(WORKLOADS["closed_small"].configs(42))
    assert [digest(r) for r in results] == load_reference("closed_small", 42)


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_workload_records_are_complete():
    metric_layers = set(LAYERS)
    for workload in WORKLOADS.values():
        assert workload.jobs >= 1
        assert len(workload.why) <= 200 and "\n" not in workload.why
        assert set(workload.loads) <= metric_layers
