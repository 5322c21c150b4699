"""Ablation studies for the design choices DESIGN.md calls out.

Not exhibits from the paper's evaluation, but experiments its Sections
5 and 7 motivate:

1. **Scheduler variants** — the paper's SJF-completable-first policy
   vs. a stable (non-SJF) variant vs. deferring incomplete responses to
   the next batch, against the FIFO baseline.
2. **N-copy scaling** — DoubleFaceAD's reactor count vs. cores
   (Section 5.1, stage 4).
3. **Business-logic intensity** — Section 7's named future factor: how
   the DoubleFace-vs-Netty gap moves as per-request CPU grows.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.report import render_table


def _tail_config(server, scheduler_kind=None, seed=42, **params):
    base = {"app_cores": 1, "request_cpu": 0.3e-3, "request_cpu_cv": 0.5,
            "response_base_cost": 1.2e-3, "assemble_base_cost": 0.3e-3,
            "service_cv": 2.5}
    base.update(params)
    return ExperimentConfig(
        server=server, workload="open", users=600, think_time=5.2,
        lfan=5, sfan=3, response_size=100, reactors=1,
        warmup=4.0, duration=12.0, seed=seed, params=base)


def test_scheduler_variant_ablation(benchmark):
    """All scheduler variants keep throughput and the architecture's
    tail advantage; the completable-first family tracks FIFO within a
    tight band (see EXPERIMENTS.md on where each variant helps)."""
    from repro.core.scheduling import (DeferIncompleteScheduler,
                                       FanoutAwareScheduler, FifoScheduler,
                                       StableFanoutScheduler)
    from repro.core.doubleface import DoubleFaceServer
    import repro.experiments.runner as runner_mod

    variants = {
        "fifo": FifoScheduler,
        "fanout-aware (paper)": FanoutAwareScheduler,
        "stable (no SJF)": StableFanoutScheduler,
        "defer-incomplete": DeferIncompleteScheduler,
    }

    def run_all():
        results = {}
        original = runner_mod._build_server
        for label, sched_cls in variants.items():
            def build(config, sim, metrics, params, cluster, rng,
                      resilience, _cls=sched_cls):
                return DoubleFaceServer(sim, metrics, params, cluster, rng,
                                        reactors=1, scheduler=_cls(),
                                        resilience=resilience)
            runner_mod._build_server = build
            try:
                results[label] = run_experiment(_tail_config("doubleface"))
            finally:
                runner_mod._build_server = original
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[label, round(r.throughput),
             round(1e3 * r.percentiles[50.0], 1),
             round(1e3 * r.percentiles[95.0], 1),
             round(1e3 * r.percentiles[99.0], 1)]
            for label, r in results.items()]
    print("\n" + render_table(
        "Ablation: scheduler variants (1 core, Lfan/Sfan=5/3)",
        ["variant", "req/s", "p50[ms]", "p95[ms]", "p99[ms]"], rows) + "\n")

    fifo = results["fifo"]
    for label, result in results.items():
        # Work-conserving reordering: throughput unchanged.
        assert abs(result.throughput - fifo.throughput) < 0.05 * fifo.throughput
        # No variant blows up the median.
        assert result.percentiles[50.0] < 1.25 * fifo.percentiles[50.0]


def test_ncopy_reactor_scaling(benchmark):
    """DoubleFaceAD throughput scales with reactors up to the core
    count and not beyond (the N-copy rule)."""

    def run_all():
        out = {}
        for reactors in (1, 2, 4):
            out[reactors] = run_experiment(ExperimentConfig(
                server="doubleface", concurrency=200, fanout=5,
                response_size=100, reactors=reactors,
                warmup=0.5, duration=1.5, params={"app_cores": 2}))
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[n, round(r.throughput), round(100 * r.cpu_utilization)]
            for n, r in results.items()]
    print("\n" + render_table(
        "Ablation: N-copy reactors on a 2-core server",
        ["reactors", "req/s", "CPU %"], rows) + "\n")

    # 2 reactors on 2 cores materially outperform 1.
    assert results[2].throughput > 1.4 * results[1].throughput
    # A 4th/3rd reactor cannot add capacity beyond the cores.
    assert results[4].throughput < 1.15 * results[2].throughput


def test_business_logic_intensity(benchmark):
    """Section 7's factor: as per-request business CPU grows, the
    frontend-serialised NettyBackend falls behind DoubleFaceAD, which
    spreads request handling over all reactors."""

    def run_all():
        out = {}
        for cpu_ms in (0.0, 0.5, 2.0):
            row = {}
            for kind in ("doubleface", "netty"):
                row[kind] = run_experiment(ExperimentConfig(
                    server=kind, concurrency=150, fanout=5,
                    response_size=100, warmup=0.5, duration=1.5,
                    params={"request_cpu": cpu_ms * 1e-3}))
            out[cpu_ms] = row
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[cpu_ms, round(r["doubleface"].throughput),
             round(r["netty"].throughput),
             round(r["doubleface"].throughput / r["netty"].throughput, 2)]
            for cpu_ms, r in results.items()]
    print("\n" + render_table(
        "Ablation: business-logic CPU intensity (fanout 5, 0.1kB)",
        ["req CPU [ms]", "doubleface", "netty", "ratio"], rows) + "\n")

    ratios = [r["doubleface"].throughput / r["netty"].throughput
              for r in results.values()]
    # The DoubleFace advantage grows with business-logic weight.
    assert ratios[-1] > ratios[0]
