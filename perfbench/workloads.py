"""The benchmark's workloads: each is a fixed list of generated
:class:`ExperimentConfig` points, parameterised only by the seed.

A workload record also says which layers it loads and which layers it
is predicted to leave untouched (checked by the profiled run, see
``run.py --trace 1``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Tuple

KB = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    #: Worker count of the exhibit user path.  End-to-end runs are
    #: serial; with ``jobs > 1`` the profiled run adds one
    #: ``BatchExecutor(jobs)`` pass to measure the result transport.
    jobs: int
    shape: str
    why: str
    #: Layers that do most of the work here.
    loads: Tuple[str, ...]
    #: Per-layer metrics predicted to read exactly zero here.
    zero: Tuple[str, ...]
    build: Callable[[], list]

    def configs(self, seed: int) -> list:
        """The points for *seed*.  Point ``i`` gets the simulator seed
        ``1000 * seed + i``, so the points' random inputs (arrivals,
        fault windows) are independent and average out within a pass."""
        return [dataclasses.replace(config, seed=1000 * seed + index)
                for index, config in enumerate(self.build())]


def _closed_small() -> list:
    from repro.experiments.config import ExperimentConfig
    return [ExperimentConfig(
        server=server, datastore="mongodb", concurrency=100, fanout=5,
        response_size=100, warmup=0.1, duration=0.25,
        keep_selector_stats=False)
        for server in ("doubleface", "netty", "aio", "threadbased", "type1")]


def _closed_large() -> list:
    from repro.experiments.config import ExperimentConfig
    common = dict(datastore="mongodb", response_size=20 * KB, warmup=0.5,
                  duration=1.5, keep_selector_stats=False)
    points = [ExperimentConfig(server=server, concurrency=20, fanout=fanout,
                               **common)
              for server in ("doubleface", "netty", "aio")
              for fanout in (5, 20)]
    points += [ExperimentConfig(server=server, concurrency=100, fanout=5,
                                **common)
               for server in ("aio", "netty", "threadbased", "type1")]
    return points


def _open_faults_obs() -> list:
    from repro.experiments.config import ExperimentConfig
    from repro.faults import FaultConfig, ResilienceConfig
    faults = FaultConfig(
        slow_shards=2, slow_factor=100.0, slow_mean_on=0.06,
        slow_mean_off=0.14, rack_slow_racks=1, rack_slow_factor=100.0,
        rack_slow_mean_on=0.05, rack_slow_mean_off=0.05)
    retry = dict(subquery_deadline=5e-3, max_retries=3, backoff_base=0.5e-3,
                 backoff_cap=2e-3)
    policies = (
        ("least_outstanding", ResilienceConfig(
            hedge_percentile=95.0, hedge_min_samples=50, **retry)),
        ("ewma", ResilienceConfig(
            hedge_percentile=95.0, hedge_min_samples=50,
            hedge_policy="attribution", **retry)),
    )
    return [ExperimentConfig(
        server=server, workload="open", users=2500, think_time=1.0,
        lfan=5, sfan=3, response_size=100, warmup=0.08, duration=0.12,
        faults=faults, resilience=resilience,
        replicas_per_shard=2, racks=2, cross_rack_extra_latency=0.5e-3,
        replica_policy=routing, trace=True, trace_sample=0.01, obs=True,
        keep_selector_stats=False)
        for server in ("doubleface", "doubleface-fifo", "aio", "netty")
        for routing, resilience in policies]


_CLOSED_ZERO = ("sim.kernel.far_pushes", "faults.self_s", "faults.hedges",
                "faults.hedge_wins", "faults.retries",
                "faults.failed_subqueries",
                "trace.self_s", "obs.self_s", "experiments.decode_s",
                "experiments.result_bytes")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="closed_small",
        jobs=1,
        shape=("closed loop (JMeter), concurrency 100, fanout 5, 0.1 kB "
               "responses, MongoDB; one point per architecture "
               "(doubleface, netty, aio, threadbased, type1); 0.1 s "
               "warm-up + 0.25 s window; serial"),
        why=("highest request rate: kernel dispatch, network, selectors, "
             "drivers, core and datastore do most work; faults, "
             "trace/obs and the pool are bypassed"),
        loads=("sim.kernel", "sim.network", "sim.syscalls", "drivers",
               "core", "datastore"),
        zero=_CLOSED_ZERO,
        build=_closed_small),
    Workload(
        name="closed_large",
        jobs=1,
        shape=("closed loop, 20 kB responses, MongoDB: doubleface/netty/"
               "aio at concurrency 20 x fanout 5 and 20 (fig13 shape), "
               "aio/netty/threadbased/type1 at concurrency 100 fanout 5 "
               "(tab1 shape); 0.5 s warm-up + 1.5 s window; serial"),
        why=("multi-quantum response CPU: the CPU scheduler, context "
             "switches, on-demand pools and mutexes dominate; few "
             "requests, so kernel/network/datastore work is light"),
        loads=("sim.cpu", "sim.threads"),
        zero=_CLOSED_ZERO,
        build=_closed_large),
    Workload(
        name="open_faults_obs",
        jobs=2,
        shape=("open loop (RUBBoS Poisson), 2500 users at 1 s think "
               "time, Lfan/Sfan 5/3 mix; 2 replicas/shard over 2 racks, "
               "0.5 ms spine; slow-shard + rack brown-outs; "
               "deadline+retry with global-p95 hedging on "
               "least_outstanding routing and attribution hedging on "
               "ewma routing; 1% tracing + telemetry ticker; servers "
               "doubleface, doubleface-fifo, aio, netty; 0.08 s warm-up + "
               "0.12 s window; serial, plus one BatchExecutor(jobs=2) pass "
               "in the profiled run"),
        why=("the only user of think-time timers, Lfan/Sfan ordering, "
             "faults, replica routing, trace/obs and the pooled result "
             "transport; hedges waste work"),
        loads=("faults", "trace", "obs", "experiments", "workload"),
        zero=(),
        build=_open_faults_obs),
)}
