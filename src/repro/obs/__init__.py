"""repro.obs — phase-annotated live telemetry for simulated runs.

Where :mod:`repro.trace` records *per-request* span trees, this
package watches the *system* over simulated time:

- :mod:`repro.obs.timeline` — a :class:`TelemetryTicker` on the
  simulation clock samples gauges every 10 ms (per-shard queue
  depths, hedge and retry rates, replica routing state, CPU run-queue
  depth) into one columnar :class:`~repro.sim.metrics.GaugeBoard`
  that rides on the result;
- :mod:`repro.obs.prometheus` — renders a finished run's end state
  (latency quantiles, counters, last gauge values, workload phases)
  in the Prometheus text exposition format.

Everything is observation-only and seed-deterministic: the ticker
draws no randomness and mutates nothing, so an observed run's measured
results are float-identical to the same run unobserved, and the
sampled series are a pure function of the seed across ``--jobs``
settings.
"""

from .prometheus import prometheus_snapshot, render_prometheus, \
    write_prometheus
from .timeline import DEFAULT_OBS_PERIOD, TelemetryTicker

__all__ = ["TelemetryTicker", "DEFAULT_OBS_PERIOD",
           "prometheus_snapshot", "render_prometheus", "write_prometheus"]
