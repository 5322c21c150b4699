"""Build and run one experiment: topology, workload, measurement.

``run_experiment`` is the single entry point used by every benchmark,
example, and test that wants a complete simulated run.  The flow:

1. Build the cost model (datastore-family tweaks + per-config overrides).
2. Build the cluster, the chosen server architecture, and the workload.
3. Run the warm-up period, mark the measurement window, run the window.
4. Collect every metric the paper's tables and figures need.
5. Free the finished simulation's reference cycle (``gc.collect``).
"""

from __future__ import annotations

import gc
from array import array
from bisect import bisect_left
from typing import Dict, List, Optional

from ..core.doubleface import DoubleFaceServer
from ..core.scheduling import FanoutAwareScheduler, FifoScheduler
from ..datastore.cluster import DatastoreCluster
from ..drivers.aio_backend import AioBackendServer
from ..drivers.netty_backend import NettyBackendServer
from ..drivers.threadbased import ThreadBasedServer
from ..drivers.type1 import Type1AsyncServer
from ..faults import FaultSchedule, ResiliencePolicy
from ..obs import TelemetryTicker
from ..sim.kernel import Simulator
from ..sim.metrics import Metrics
from ..sim.params import CostParams
from ..sim.rng import RngStreams
from ..trace import FlameAccumulator, Tracer, build_flame, build_summary
from ..workload.closed_loop import ClosedLoopWorkload
from ..workload.open_loop import PoissonWorkload
from ..workload.profiles import lfan_sfan_profile, uniform_profile
from .config import ExperimentConfig, ExperimentResult

__all__ = ["run_experiment", "build_params", "PERCENTILES"]

#: Percentiles every result reports.
PERCENTILES = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)


def build_params(config: ExperimentConfig) -> CostParams:
    """Cost model for *config*: datastore-family presets + overrides."""
    params = CostParams()
    overrides: Dict = {}
    if config.datastore == "hbase":
        # HBase point reads traverse more layers (HFile blocks, region
        # server) than MongoDB's in-memory b-tree: slightly slower.
        overrides["point_lookup_mean"] = params.point_lookup_mean * 1.3
    overrides.update(config.params)
    if overrides:
        params = params.with_overrides(**overrides)
    return params


def _build_server(config: ExperimentConfig, sim: Simulator, metrics: Metrics,
                  params: CostParams, cluster: DatastoreCluster,
                  rng: RngStreams, resilience: Optional[ResiliencePolicy]):
    kind = config.server
    if kind == "threadbased":
        return ThreadBasedServer(sim, metrics, params, cluster, rng,
                                 resilience=resilience)
    if kind == "type1":
        return Type1AsyncServer(sim, metrics, params, cluster, rng,
                                resilience=resilience)
    if kind == "aio":
        return AioBackendServer(sim, metrics, params, cluster, rng,
                                resilience=resilience)
    if kind == "netty":
        return NettyBackendServer(sim, metrics, params, cluster, rng,
                                  backend_reactors=config.backend_reactors,
                                  resilience=resilience)
    if kind == "doubleface":
        return DoubleFaceServer(sim, metrics, params, cluster, rng,
                                reactors=config.reactors,
                                scheduler=FanoutAwareScheduler(),
                                resilience=resilience)
    if kind == "doubleface-fifo":
        return DoubleFaceServer(sim, metrics, params, cluster, rng,
                                reactors=config.reactors,
                                scheduler=FifoScheduler(),
                                resilience=resilience)
    raise ValueError(f"unknown server kind {kind!r}")


def _build_profile(config: ExperimentConfig):
    if config.lfan is not None and config.sfan is not None:
        return lfan_sfan_profile(config.lfan, config.sfan,
                                 config.response_size)
    return uniform_profile(config.fanout, config.response_size)


def _phase_hook(sim: Simulator, config: ExperimentConfig, faults):
    """Phase label for a request starting at time *t*.

    Base phase is ``warmup`` or ``measure``; every fault family active
    at *t* appends a ``+<family>`` suffix (e.g. ``measure+slow``), so
    the flame aggregation separates healthy from degraded behaviour.
    The hook runs at trace *finish* time, which is never earlier than
    the request's start, so advancing the fault tracks to ``sim.now``
    always realizes the windows the query may have overlapped.
    """
    warmup = config.warmup

    def phase_of(t: float) -> str:
        phase = "warmup" if t < warmup else "measure"
        if faults is not None:
            faults.advance(sim.now)
            for family in faults.families_at(t):
                phase += "+" + family
        return phase

    return phase_of


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one configured experiment and return its measurements."""
    result = _simulate(config)
    # The finished simulation is one large reference cycle; free it now
    # rather than at the cyclic GC's next (rare) full collection.
    gc.collect()
    return result


def _simulate(config: ExperimentConfig) -> ExperimentResult:
    sim = Simulator()
    metrics = Metrics()
    params = build_params(config)
    rng = RngStreams(config.seed)
    faults = None
    if config.faults is not None and config.faults.active:
        faults = FaultSchedule(config.faults, rng, n_shards=config.n_shards,
                               racks=config.racks)
    if config.trace:
        # The sampler draws from its own named stream, so tracing a run
        # never perturbs any other stream's draw sequence — and an
        # untraced run creates no stream at all (byte-identical).
        sim.tracer = Tracer(rng.stream("trace.sample"),
                            sample_rate=config.trace_sample)
        sim.tracer.flame = FlameAccumulator()
        sim.tracer.phase_of = _phase_hook(sim, config, faults)
    cluster = DatastoreCluster(
        sim, metrics, params, rng, n_shards=config.n_shards,
        large_shards=config.large_shards,
        remote=(config.datastore == "dynamodb"),
        name=config.datastore,
        replicas_per_shard=config.replicas_per_shard,
        racks=config.racks,
        replica_policy=config.replica_policy,
        faults=faults,
        cross_rack_extra_latency=config.cross_rack_extra_latency)
    resilience = None
    if config.resilience is not None and config.resilience.active:
        resilience = ResiliencePolicy(sim, metrics, config.resilience, rng,
                                      cluster)
    server = _build_server(config, sim, metrics, params, cluster, rng,
                           resilience)
    profile = _build_profile(config)
    if config.workload == "closed":
        workload = ClosedLoopWorkload(
            sim, metrics, params, server, profile, config.concurrency, rng)
    else:
        workload = PoissonWorkload(
            sim, metrics, params, server, profile, config.users,
            config.think_time, rng)
    server.start()
    workload.start()
    thread_times, thread_values = array("d"), array("d")
    if config.thread_sample_period > 0:
        cpu = server.cpu

        def sample_threads(now: float) -> None:
            thread_times.append(now)
            thread_values.append(cpu.runnable_count)

        sim.call_every(config.thread_sample_period, sample_threads)
    ticker = None
    if config.obs:
        # Observation-only: the ticker's events shift every later
        # event's sequence number uniformly, which preserves the
        # relative dispatch order of all simulation events — measured
        # results stay float-identical (asserted by tests).
        ticker = TelemetryTicker(sim, metrics, server)
        ticker.start()

    # Warm-up, then the measurement window.
    sim.run(until=config.warmup)
    metrics.mark_window_start(sim.now)
    if sim.tracer is not None:
        # Drop warm-up aggregates; requests in flight across the
        # boundary keep their open stamps and complete normally.
        sim.tracer.reset(sim.now)
    load_start = server.cpu.load_snapshot()
    sim.run(until=config.warmup + config.duration)
    load_end = server.cpu.load_snapshot()

    phases = []
    if config.trace or config.obs:
        end = config.warmup + config.duration
        phases.append(("warmup", 0.0, config.warmup))
        phases.append(("measure", config.warmup, end))
        if faults is not None:
            phases.extend(faults.realized_windows(end))

    return _collect(config, sim, metrics, server, load_end - load_start,
                    (thread_times, thread_values), ticker=ticker,
                    phases=phases)


def _collect(config: ExperimentConfig, sim: Simulator, metrics: Metrics,
             server, load_integral: float, thread_samples, ticker=None,
             phases=()) -> ExperimentResult:
    now = sim.now
    window = config.duration
    rt = metrics.latency("client.rt")
    percentiles = {q: rt.percentile(q) for q in PERCENTILES}
    class_percentiles: Dict[str, Dict[float, float]] = {}
    for name, recorder in metrics.latencies.items():
        if name.startswith("client.rt.") and len(recorder) > 0:
            klass = name[len("client.rt."):]
            class_percentiles[klass] = {
                q: recorder.percentile(q) for q in PERCENTILES}

    selector_stats: List[Dict] = [s.stats() for s in server.selectors()]
    total_selects = sum(s["selects"] for s in selector_stats)
    if not config.keep_selector_stats:
        # The exhibit only reads the aggregates: don't ship the raw
        # dicts back through the worker-pool pickle.
        selector_stats = []
    # The sampler appends in time order: cut [window_start, now).
    times, values = thread_samples
    lo = bisect_left(times, metrics.window_start)
    hi = bisect_left(times, now)
    latency_times, latency_values = array("d"), array("d")
    if config.keep_latency_samples:
        latency_times, latency_values = rt.window_columns()

    fault_counters = {
        name: metrics.count(name)
        for name in sorted(metrics.counters)
        if (name.startswith("resilience.") or name.startswith("faults.")
            or name == "server.completed.degraded")
    }

    return ExperimentResult(
        config=config,
        throughput=metrics.rate("client.completed", now),
        percentiles=percentiles,
        class_percentiles=class_percentiles,
        mean_rt=rt.mean(),
        cpu_utilization=server.cpu.utilization(),
        cpu_shares={cat: metrics.cpu.category_share(cat)
                    for cat in ("app", "lock", "thread_init", "select",
                                "syscall", "ctx_switch")},
        ctx_switches_per_sec=metrics.count("cpu.app.ctx_switches") / window,
        avg_running_threads=load_integral / window,
        selector_stats=selector_stats,
        selects_per_sec=total_selects / window,
        select_cpu_share=metrics.cpu.category_share("select"),
        pool_spawns=sum(v for k, v in
                        ((k, metrics.count(k)) for k in list(metrics.counters))
                        if k.startswith("pool.") and k.endswith(".spawned")),
        completed=metrics.count("client.completed"),
        window=window,
        thread_times=times[lo:hi],
        thread_values=values[lo:hi],
        latency_times=latency_times,
        latency_values=latency_values,
        fault_counters=fault_counters,
        trace_summary=(build_summary(sim.tracer)
                       if sim.tracer is not None else None),
        hedge_delays=(server.resilience.learned_delays()
                      if server.resilience is not None else {}),
        obs_names=ticker.board.names if ticker is not None else (),
        obs_times=ticker.board.times if ticker is not None else array("d"),
        obs_values=(list(ticker.board.columns())
                    if ticker is not None else []),
        phases=list(phases),
        flame=(build_flame(sim.tracer.flame)
               if sim.tracer is not None and sim.tracer.flame is not None
               else None),
    )
