"""Differential test: the callback shard station against a G/G/c
reference built from simulated processes.

The reference below is the station as it was written before it became
plain callbacks: ``shard_concurrency`` serve-loop generators reading one
FIFO :class:`~repro.sim.resources.Queue`.  Both are fed the same seeded
arrivals (with same-instant bursts, a crash window and a slow window)
and must agree float for float: per-query service start and finish
times, crash drops, sampled queue depths, and the service RNG state
left behind.
"""

import random

import pytest

from repro.datastore.kvstore import ServiceTimeModel
from repro.datastore.server import ShardServer, _TaggingEndpoint
from repro.messages import Query, QueryResponse
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.params import CostParams
from repro.sim.resources import Queue

CRASH = (0.010, 0.014)
SLOW = (0.020, 0.028)
SLOW_MULTIPLIER = 4.0
DEPTH_PERIOD = 0.5e-3


class WindowFaults:
    """One crash window and one slow window, keyed by time only."""

    def is_down(self, shard_id, replica, now):
        return CRASH[0] <= now < CRASH[1]

    def service_multiplier(self, shard_id, replica, now):
        return SLOW_MULTIPLIER if SLOW[0] <= now < SLOW[1] else 1.0

    def rack_active(self, shard_id, replica, now):
        return False


class ReferenceShard:
    """G/G/c as simulated processes: c serve loops over one Queue."""

    def __init__(self, sim, metrics, params, rng, faults):
        self.sim = sim
        self.metrics = metrics
        self.faults = faults
        self.service_model = ServiceTimeModel(params, rng)
        self.inbox = Queue(sim)
        for _ in range(params.shard_concurrency):
            sim.process(self._serve_loop())

    @property
    def inbox_depth(self):
        return len(self.inbox)

    def endpoint(self, conn):
        inbox = self.inbox
        return lambda query: inbox.put((conn, query))

    def _serve_loop(self):
        sim = self.sim
        while True:
            conn, query = yield self.inbox.get()
            if self.faults.is_down(0, 0, sim.now):
                self.metrics.add("faults.crash_dropped_queries")
                continue
            multiplier = self.faults.service_multiplier(0, 0, sim.now)
            if multiplier != 1.0:
                self.metrics.add("faults.slowed_queries")
            service_time = self.service_model.draw(
                query.op, query.response_size, multiplier=multiplier)
            yield sim.timeout(service_time)
            conn.transmit(QueryResponse(
                request_id=query.request_id, shard_id=0,
                payload_size=query.response_size, seq=query.seq,
                service_time=service_time), 0, "a")


class Station:
    """The shard under test, behind the same two-method face."""

    def __init__(self, sim, metrics, params, rng, faults):
        self.shard = ShardServer(sim, metrics, params, 0, rng,
                                 faults=faults)
        self.service_model = self.shard.service_model

    @property
    def inbox_depth(self):
        return self.shard.inbox_depth

    def endpoint(self, conn):
        return _TaggingEndpoint(self.shard, conn).deliver


class FinishLog:
    """Stands in for the client connection: logs each reply's time."""

    def __init__(self, sim):
        self.sim = sim
        self.finished = {}

    def transmit(self, response, size, to_side):
        assert to_side == "a"
        self.finished[response.payload_size] = (self.sim.now,
                                                response.service_time)


def arrivals(seed, n=400):
    """Arrival times: exponential gaps at ~90 % of one slot's capacity,
    a same-instant burst of 2-6 queries after one gap in five, and some
    arrivals exactly on a depth-sampling tick."""
    rng = random.Random(seed)
    times, t = [], 0.0
    while len(times) < n:
        t += rng.expovariate(1.0 / 60e-6)
        if rng.random() < 0.1:
            # Snap onto the next tick, the same float call_every makes.
            t = (int(t / DEPTH_PERIOD) + 1) * DEPTH_PERIOD
        times.extend([t] * (rng.randint(2, 6) if rng.random() < 0.2 else 1))
    return times[:n]


def run(kind, concurrency, seed):
    sim = Simulator()
    metrics = Metrics()
    params = CostParams().with_overrides(shard_concurrency=concurrency)
    rng = random.Random(seed)
    station = kind(sim, metrics, params, rng, WindowFaults())
    starts = {}
    draw = station.service_model.draw

    def logged_draw(op, response_bytes, multiplier=1.0):
        starts[response_bytes] = sim.now
        return draw(op, response_bytes, multiplier=multiplier)

    station.service_model.draw = logged_draw
    log = FinishLog(sim)
    deliver = station.endpoint(log)
    for i, when in enumerate(arrivals(seed)):
        # A unique response size names the query in the draw log.
        sim.call_at(when, deliver, Query(request_id=i, shard_id=0,
                                         op="get", response_size=1000 + i,
                                         seq=i))
    depths = []
    sim.call_every(DEPTH_PERIOD, lambda now: depths.append(
        (now, station.inbox_depth)))
    sim.run(until=0.05)
    return {
        "starts": starts,
        "finished": log.finished,
        "dropped": metrics.raw_count("faults.crash_dropped_queries"),
        "slowed": metrics.raw_count("faults.slowed_queries"),
        "depths": depths,
        "rng": rng.getstate(),
    }


@pytest.mark.parametrize("concurrency", [1, 2, 4])
@pytest.mark.parametrize("seed", [3, 11])
def test_callback_station_matches_process_reference(concurrency, seed):
    ours = run(Station, concurrency, seed)
    reference = run(ReferenceShard, concurrency, seed)
    # The scenario reaches every path: drops, slowed service, queueing.
    assert reference["dropped"] > 0
    assert reference["slowed"] > 0
    assert max(depth for _, depth in reference["depths"]) > 0
    assert ours["starts"] == reference["starts"]
    assert ours["finished"] == reference["finished"]
    assert ours["dropped"] == reference["dropped"]
    assert ours["slowed"] == reference["slowed"]
    assert ours["depths"] == reference["depths"]
    assert ours["rng"] == reference["rng"]
