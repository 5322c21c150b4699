"""The simulated-time telemetry ticker.

A :class:`TelemetryTicker` fires every ``period`` simulated seconds
(via :meth:`Simulator.call_every`) and samples live gauges into one
:class:`~repro.sim.metrics.GaugeBoard` — a shared time column plus one
``array('d')`` value column per gauge, which a pooled run pickles as
raw float bytes.

Determinism contract (the same one :mod:`repro.trace` keeps):

- the tick callback **reads** state and appends to its private board;
  it draws no randomness and mutates nothing the simulation consults,
  so measured results are float-identical with the ticker on or off
  (asserted by the observability integration tests);
- tick times and every sampled value are pure functions of the seed,
  so the series are identical across ``--jobs 1`` / ``--jobs N``.

Gauge vocabulary (columns appear in this order):

- ``cpu.runnable`` — app-CPU run-queue depth (runnable + running);
- ``retry.rate`` / ``hedge.rate`` — resilience retries/hedges fired
  per second over the last tick (windowed counter deltas);
- ``queued.total`` and ``queued.shard<i>`` — queries sitting in shard
  inboxes (all replicas), total and per shard;
- ``outstanding.shard<i>`` — the replica selector's in-flight counts
  (summed over replicas), only under the ``least_outstanding`` policy;
- ``ewma.shard<i>.r<j>`` — per-replica EWMA latency estimates, only
  under the ``ewma`` policy.
"""

from __future__ import annotations

from typing import List

from ..sim.kernel import Simulator
from ..sim.metrics import GaugeBoard, Metrics

__all__ = ["TelemetryTicker", "DEFAULT_OBS_PERIOD"]

#: Default sampling period [simulated s]: 10 ms — ~100 samples over a
#: quick exhibit window, a few hundred floats per gauge.
DEFAULT_OBS_PERIOD = 0.01


class TelemetryTicker:
    """Observation-only gauge sampler on the simulation clock.

    Built from a running server (any of the five architectures — the
    gauges only touch the shared cluster/CPU/selector surfaces) and
    started once; the tick chain ends with the run.
    """

    def __init__(self, sim: Simulator, metrics: Metrics, server,
                 period: float = DEFAULT_OBS_PERIOD) -> None:
        if period <= 0.0:
            raise ValueError(f"obs period must be positive, got {period}")
        self.sim = sim
        self.metrics = metrics
        self.period = period
        self._cpu = server.cpu
        cluster = server.cluster
        self._replica_sets = cluster.replica_sets
        selector = cluster.replica_selector
        self._selector = selector
        n_shards = cluster.n_shards
        names: List[str] = ["cpu.runnable", "retry.rate", "hedge.rate",
                            "queued.total"]
        names += [f"queued.shard{i}" for i in range(n_shards)]
        self._sample_outstanding = (selector.policy == "least_outstanding"
                                    and selector.replicas > 1)
        if self._sample_outstanding:
            names += [f"outstanding.shard{i}" for i in range(n_shards)]
        self._sample_ewma = (selector.policy == "ewma"
                             and selector.replicas > 1)
        if self._sample_ewma:
            names += [f"ewma.shard{i}.r{j}"
                      for i in range(n_shards)
                      for j in range(selector.replicas)]
        #: The sampled series; the runner copies its columns onto the
        #: result after the measurement window.
        self.board = GaugeBoard(names)
        self._last_retries = 0.0
        self._last_hedges = 0.0

    def start(self) -> None:
        """Begin ticking at ``now + period``."""
        self.sim.call_every(self.period, self._tick)

    def _tick(self, now: float) -> None:
        metrics = self.metrics
        retries = metrics.raw_count("resilience.retries")
        hedges = metrics.raw_count("resilience.hedges")
        per_sec = 1.0 / self.period
        values: List[float] = [
            float(self._cpu.runnable_count),
            (retries - self._last_retries) * per_sec,
            (hedges - self._last_hedges) * per_sec,
        ]
        self._last_retries = retries
        self._last_hedges = hedges
        depths = [float(sum(replica.inbox_depth for replica in replicas))
                  for replicas in self._replica_sets]
        values.append(sum(depths))
        values.extend(depths)
        if self._sample_outstanding:
            selector = self._selector
            values.extend(float(sum(selector.outstanding(i)))
                          for i in range(len(depths)))
        if self._sample_ewma:
            selector = self._selector
            for i in range(len(depths)):
                values.extend(selector.latency_score(i))
        self.board.append(now, values)
