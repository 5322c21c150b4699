"""Discrete-event simulation substrate.

Layers (bottom-up):

- :mod:`repro.sim.kernel` — events, processes, the event loop.
- :mod:`repro.sim.resources` — waitable queues and semaphores.
- :mod:`repro.sim.cpu` — cores, run queues, context switches.
- :mod:`repro.sim.threads` — threads, mutexes, worker pools.
- :mod:`repro.sim.syscalls` — the select()/epoll readiness model.
- :mod:`repro.sim.network` — connections and endpoints.
- :mod:`repro.sim.metrics` / :mod:`repro.sim.params` / :mod:`repro.sim.rng`
  — measurement, cost calibration, deterministic randomness.
"""

from .kernel import (AllOf, CountdownLatch, Event, Process,
                     SimulationError, Simulator, Timeout)
from .metrics import CpuAccounting, LatencyRecorder, Metrics
from .params import KB, CostParams
from .resources import Queue, QueueTimeout, Semaphore, queue_get_with_timeout
from .rng import RngStreams, lognormal_from_mean_cv
from .cpu import Cpu
from .threads import FixedPool, Mutex, OnDemandPool, SimThread, locked_section
from .syscalls import Channel, Selector
from .network import ChannelEndpoint, Connection, Endpoint, InboxEndpoint

__all__ = [
    "AllOf", "CountdownLatch", "Event", "Process",
    "SimulationError", "Simulator",
    "Timeout", "CpuAccounting", "LatencyRecorder", "Metrics",
    "KB", "CostParams", "Queue", "QueueTimeout", "Semaphore",
    "queue_get_with_timeout", "RngStreams", "lognormal_from_mean_cv", "Cpu",
    "FixedPool", "Mutex", "OnDemandPool", "SimThread", "locked_section",
    "Channel", "Selector", "ChannelEndpoint", "Connection", "Endpoint",
    "InboxEndpoint",
]
