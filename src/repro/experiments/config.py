"""Experiment configuration and result records.

A :class:`ExperimentConfig` fully describes one simulated run: which
server architecture, which datastore family, which workload, and every
parameter override.  :func:`repro.experiments.runner.run_experiment`
turns one into an :class:`ExperimentResult` with every measurement the
paper's tables and figures report.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..datastore.sharding import REPLICA_POLICIES
from ..faults import FaultConfig, ResilienceConfig

__all__ = ["ExperimentConfig", "ExperimentResult", "SERVER_KINDS",
           "DATASTORE_KINDS"]

#: Server architectures the runner can build.
SERVER_KINDS = ("threadbased", "type1", "aio", "netty", "doubleface",
                "doubleface-fifo")

#: Datastore families.  They differ only in what the paper's testbed
#: differed in: DynamoDB is the remote (Amazon) cluster, HBase's
#: column-oriented reads are slightly slower per point lookup.
DATASTORE_KINDS = ("mongodb", "hbase", "dynamodb")


@dataclass
class ExperimentConfig:
    """One simulated experiment."""

    server: str = "doubleface"
    datastore: str = "mongodb"
    n_shards: int = 20
    fanout: int = 5
    response_size: int = 100
    #: "closed" (JMeter) or "open" (RUBBoS/Poisson).
    workload: str = "closed"
    concurrency: int = 20          # closed-loop users
    users: int = 100               # open-loop users
    think_time: float = 1.0        # open-loop mean think time [s]
    lfan: Optional[int] = None     # enable the Lfan/Sfan mix when set
    sfan: Optional[int] = None
    warmup: float = 0.3
    duration: float = 1.0
    seed: int = 42
    backend_reactors: int = 2      # NettyBackend only
    #: DoubleFaceAD reactor count: one per core (the paper's N-copy
    #: rule), matching the default 2-core cost model.
    reactors: int = 2              # DoubleFaceAD only
    type1_pool_size: Optional[int] = None
    aio_pool_max: Optional[int] = None
    large_shards: bool = False
    #: CostParams field overrides (e.g. {"request_cpu": 3e-3}).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Sample the runnable-thread count every this many seconds
    #: (0 disables the sampler).
    thread_sample_period: float = 0.0
    #: Copy the raw per-selector stats dicts into the result.  Exhibits
    #: that only consume the aggregates (``selects_per_sec``,
    #: ``select_cpu_share``) set this False to shrink the pickled
    #: ``Pool`` payload; the aggregates are always computed.  Only
    #: affects what the result carries, never the simulation itself.
    keep_selector_stats: bool = True
    #: Ship the raw windowed ``client.rt`` samples in the result as
    #: flat (time, value) float columns (``latency_times`` /
    #: ``latency_values``).  Off by default: the columns grow with the
    #: window.  Only affects what the result carries, never the
    #: simulation itself.
    keep_latency_samples: bool = False
    #: Deterministic fault injection (None = fault-free; the default
    #: keeps every pre-existing run byte-identical).
    faults: Optional[FaultConfig] = None
    #: Driver resilience policy shared by all architectures (None = the
    #: plain fire-and-forget driver behaviour).
    resilience: Optional[ResilienceConfig] = None
    #: Replicas per shard (1 = unreplicated; >1 enables failover and
    #: hedging targets on secondary replicas).
    replicas_per_shard: int = 1
    #: Initial-send routing across a shard's replica set; one of
    #: :data:`repro.datastore.sharding.REPLICA_POLICIES`.  The default
    #: ``primary`` reproduces the pre-replica-routing behaviour exactly.
    replica_policy: str = "primary"
    #: Racks the cluster spans (correlated-fault topology; 1 = no
    #: meaningful rack structure).
    racks: int = 1
    #: Extra one-way latency [s] for connections whose target replica
    #: sits outside the app server's rack (spine-crossing asymmetry).
    #: The 0.0 default keeps every run byte-identical to the flat
    #: topology.
    cross_rack_extra_latency: float = 0.0
    #: Deterministic span tracing (``repro.trace``).  Off by default;
    #: enabling it never changes any measured result, only records it.
    trace: bool = False
    #: Head-based sampling probability for traced requests (drawn from
    #: the dedicated ``trace.sample`` RNG stream).
    trace_sample: float = 0.01
    #: Slowest-request exemplar traces kept per request class.
    trace_exemplars: int = 3
    #: Phase-annotated live telemetry (``repro.obs``): a simulated-time
    #: ticker samples gauge time-series (queue depths, hedge/retry
    #: rates, replica estimates, CPU run queue).  Observation-only —
    #: enabling it never changes any measured result.
    obs: bool = False
    #: Telemetry sampling period [simulated s].
    obs_period: float = 0.01
    label: str = ""

    def __post_init__(self) -> None:
        if self.server not in SERVER_KINDS:
            raise ValueError(
                f"unknown server kind {self.server!r}; "
                f"valid: {', '.join(SERVER_KINDS)}")
        if self.datastore not in DATASTORE_KINDS:
            raise ValueError(
                f"unknown datastore kind {self.datastore!r}; "
                f"valid: {', '.join(DATASTORE_KINDS)}")
        if self.workload not in ("closed", "open"):
            raise ValueError(f"unknown workload kind {self.workload!r}")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if self.fanout > self.n_shards:
            raise ValueError("fanout cannot exceed shard count")
        if self.response_size < 1:
            raise ValueError("response_size must be >= 1 byte")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if self.think_time <= 0:
            raise ValueError("think_time must be positive")
        if (self.lfan is None) != (self.sfan is None):
            raise ValueError("lfan and sfan must be set together")
        if self.lfan is not None and (self.lfan < 1 or self.sfan < 1):
            raise ValueError("lfan/sfan must be >= 1")
        if self.duration <= 0 or self.warmup < 0:
            raise ValueError("bad warmup/duration")
        if self.replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")
        if self.replica_policy not in REPLICA_POLICIES:
            raise ValueError(
                f"unknown replica policy {self.replica_policy!r}; "
                f"valid: {', '.join(REPLICA_POLICIES)}")
        if self.racks < 1:
            raise ValueError("racks must be >= 1")
        if self.cross_rack_extra_latency < 0:
            raise ValueError("cross_rack_extra_latency must be >= 0")
        if not 0.0 < self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be in (0, 1]")
        if self.trace_exemplars < 1:
            raise ValueError("trace_exemplars must be >= 1")
        if self.obs_period <= 0:
            raise ValueError("obs_period must be positive")
        if not self.label:
            self.label = self.server


def _empty_column() -> array:
    return array("d")


@dataclass
class ExperimentResult:
    """Everything one run measured (paper-table vocabulary).

    Bulk measurements (thread samples, optional raw latency samples)
    are stored as flat ``array('d')`` columns, which pickle as raw
    float bytes when the parallel runner ships a result; the
    ``thread_samples`` / ``latency_samples`` properties materialise the
    classic list-of-(time, value)-tuples view on demand, so exhibit and
    report code consumes results unchanged.
    """

    config: ExperimentConfig
    #: Completed requests per second (client-side).
    throughput: float
    #: Client response-time percentiles [s]: {50: ..., 90: ..., 99: ...}.
    percentiles: Dict[float, float]
    #: Per-class percentiles: {"Lfan": {99: ...}, ...}.
    class_percentiles: Dict[str, Dict[float, float]]
    mean_rt: float
    #: App-server CPU utilisation over the window (0..1).
    cpu_utilization: float
    #: Share of busy CPU per category (lock, thread_init, select, ...).
    cpu_shares: Dict[str, float]
    #: Context switches per second on the app CPU.
    ctx_switches_per_sec: float
    #: Time-averaged runnable+running thread count.
    avg_running_threads: float
    #: Per-selector stats dicts (selects, events, spurious, ...).
    selector_stats: List[Dict[str, Any]]
    #: select() calls per second, all selectors.
    selects_per_sec: float
    #: Share of busy CPU spent in select() (Table 2's row).
    select_cpu_share: float
    #: On-demand pool spawns in the window (AIO only).
    pool_spawns: float
    #: Completed requests in the window.
    completed: float
    #: Window length [s].
    window: float
    #: Runnable-thread sample columns (time, count) when sampling was
    #: enabled; empty otherwise.
    thread_times: array = field(default_factory=_empty_column)
    thread_values: array = field(default_factory=_empty_column)
    #: Raw windowed ``client.rt`` sample columns (completion time,
    #: latency) when ``keep_latency_samples`` was set; empty otherwise.
    latency_times: array = field(default_factory=_empty_column)
    latency_values: array = field(default_factory=_empty_column)
    #: Fault/resilience counters over the window (``resilience.*``,
    #: ``faults.*``, ``server.completed.degraded``); empty when no
    #: faults or resilience policy were configured.
    fault_counters: Dict[str, float] = field(default_factory=dict)
    #: Span-trace summary (:func:`repro.trace.build_summary`) when
    #: ``config.trace`` was set: per-class critical-path breakdowns and
    #: tail exemplars.  None on untraced runs.
    trace_summary: Optional[Dict[str, Any]] = None
    #: Learned per-shard hedge delays (shard -> seconds) the
    #: attribution digest converged to; empty unless
    #: ``resilience.hedge_policy == "attribution"``.
    hedge_delays: Dict[int, float] = field(default_factory=dict)
    #: Telemetry gauge names when ``config.obs`` was set (column order
    #: matches ``obs_values``); empty otherwise.
    obs_names: Tuple[str, ...] = ()
    #: Shared telemetry time column and one value column per gauge.
    obs_times: array = field(default_factory=_empty_column)
    obs_values: List[array] = field(default_factory=list)
    #: Workload phases as (name, start, end) windows over the run
    #: (warmup / measure plus every realized fault window); populated
    #: when tracing or telemetry was on.
    phases: List[Tuple[str, float, float]] = field(default_factory=list)
    #: Cross-request flame aggregation
    #: (:func:`repro.trace.build_flame`) when ``config.trace`` was set;
    #: None on untraced runs.
    flame: Optional[Dict[str, Any]] = None

    @property
    def thread_samples(self) -> List[Tuple[float, float]]:
        """Row view of the thread-sample columns: [(t, n), ...]."""
        return list(zip(self.thread_times, self.thread_values))

    @property
    def latency_samples(self) -> List[Tuple[float, float]]:
        """Row view of the latency-sample columns: [(t, rt), ...]."""
        return list(zip(self.latency_times, self.latency_values))

    @property
    def obs_gauges(self) -> Dict[str, array]:
        """Name -> value-column view of the telemetry series (shared
        arrays, not copies; all share ``obs_times``)."""
        return dict(zip(self.obs_names, self.obs_values))

    def percentile(self, q: float) -> float:
        return self.percentiles[q]
