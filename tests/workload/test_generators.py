"""Tests for the closed-loop and open-loop workload generators."""

import hashlib

import pytest

from repro.core.doubleface import DoubleFaceServer
from repro.datastore.cluster import DatastoreCluster
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.params import CostParams
from repro.sim.rng import RngStreams
from repro.workload.closed_loop import ClosedLoopWorkload
from repro.workload.open_loop import PoissonWorkload
from repro.workload.profiles import uniform_profile


def build_env(seed=42, **param_overrides):
    sim = Simulator()
    metrics = Metrics()
    params = CostParams().with_overrides(**param_overrides)
    rng = RngStreams(seed)
    cluster = DatastoreCluster(sim, metrics, params, rng, n_shards=4)
    server = DoubleFaceServer(sim, metrics, params, cluster, rng, reactors=1)
    server.start()
    return sim, metrics, params, server, rng


class TestClosedLoop:
    def test_drives_requests_and_records_latency(self):
        sim, metrics, params, server, rng = build_env()
        profile = uniform_profile(2, 100)
        workload = ClosedLoopWorkload(sim, metrics, params, server, profile,
                                      concurrency=5, rng_streams=rng)
        workload.start()
        sim.run(until=0.5)
        completed = metrics.raw_count("client.completed")
        assert completed > 50
        assert metrics.latency("client.rt").raw_count == completed

    def test_concurrency_bounds_in_flight(self):
        """Closed loop: in-flight requests never exceed the user count."""
        sim, metrics, params, server, rng = build_env()
        profile = uniform_profile(2, 100)
        workload = ClosedLoopWorkload(sim, metrics, params, server, profile,
                                      concurrency=3, rng_streams=rng)
        workload.start()
        sim.run(until=0.5)
        sent = metrics.raw_count("server.requests")
        done = metrics.raw_count("client.completed")
        assert sent - done <= 3

    def test_rejects_bad_concurrency_and_double_start(self):
        sim, metrics, params, server, rng = build_env()
        profile = uniform_profile(1, 100)
        with pytest.raises(ValueError):
            ClosedLoopWorkload(sim, metrics, params, server, profile,
                               concurrency=0, rng_streams=rng)
        workload = ClosedLoopWorkload(sim, metrics, params, server, profile,
                                      concurrency=1, rng_streams=rng)
        workload.start()
        with pytest.raises(RuntimeError):
            workload.start()

    def test_deterministic_given_seed(self):
        def run(seed):
            sim, metrics, params, server, rng = build_env(seed=seed)
            profile = uniform_profile(2, 100)
            ClosedLoopWorkload(sim, metrics, params, server, profile,
                               concurrency=4, rng_streams=rng).start()
            sim.run(until=0.3)
            return metrics.raw_count("client.completed")

        assert run(7) == run(7)


class TestOpenLoop:
    def test_rate_tracks_users_over_think_time(self):
        sim, metrics, params, server, rng = build_env()
        profile = uniform_profile(2, 100)
        workload = PoissonWorkload(sim, metrics, params, server, profile,
                                   users=100, think_time_mean=1.0,
                                   rng_streams=rng)
        assert workload.offered_rate == pytest.approx(100.0)
        workload.start()
        sim.run(until=5.0)
        rate = metrics.raw_count("client.completed") / 5.0
        # Response times are tiny relative to think time, so the
        # completion rate approximates users/think.
        assert rate == pytest.approx(100.0, rel=0.15)

    def test_validation(self):
        sim, metrics, params, server, rng = build_env()
        profile = uniform_profile(1, 100)
        with pytest.raises(ValueError):
            PoissonWorkload(sim, metrics, params, server, profile,
                            users=0, think_time_mean=1.0, rng_streams=rng)
        with pytest.raises(ValueError):
            PoissonWorkload(sim, metrics, params, server, profile,
                            users=1, think_time_mean=0.0, rng_streams=rng)

    def test_arrivals_are_spread_not_synchronized(self):
        """Session start staggering: arrivals in the first think period
        should not all land at once."""
        sim, metrics, params, server, rng = build_env()
        profile = uniform_profile(1, 100)
        PoissonWorkload(sim, metrics, params, server, profile,
                        users=50, think_time_mean=2.0,
                        rng_streams=rng).start()
        sim.run(until=1.0)
        first_wave = metrics.raw_count("server.requests")
        assert 5 < first_wave < 50

    @pytest.mark.parametrize("users", [1, 10, 1000])
    def test_heap_does_not_grow_with_users(self, users):
        """Users are built when they first arrive: after start() one
        arrival entry is pending, whatever the population."""
        sim, metrics, params, server, rng = build_env()
        before = len(sim._queue)
        workload = PoissonWorkload(sim, metrics, params, server,
                                   uniform_profile(1, 100), users=users,
                                   think_time_mean=1.0, rng_streams=rng)
        workload.start()
        assert len(sim._queue) == before + 1

    def test_equal_offsets_launch_in_user_order(self):
        """Arrivals run by (offset, user_id) at the exact drawn floats."""
        sim = Simulator()
        server = RecordingServer(sim)
        workload = PoissonWorkload(sim, Metrics(), CostParams(), server,
                                   uniform_profile(1, 100), users=4,
                                   think_time_mean=1.0,
                                   rng_streams=RngStreams(1))
        workload._think_rng = ScriptedThink([0.5, 0.25, 0.5, 0.25])
        workload.start()
        assert server.conns == []  # accepted at first arrival, not here
        sim.run(until=0.75)
        assert server.sent == [(0.25, 1), (0.25, 3), (0.5, 0), (0.5, 2)]
        assert [conn.user_id for conn in server.conns] == [1, 3, 0, 2]
        assert all(conn.endpoint_a is not None for conn in server.conns)

    def test_sparse_population_point_is_pinned(self):
        """Most of the 2,000 users are due after this point ends; the
        reported figures are the ones recorded when every user was
        built at t=0, so a change in arrival order shows here."""
        result = run_experiment(ExperimentConfig(
            server="doubleface", workload="open", users=2000,
            think_time=1.0, warmup=0.05, duration=0.1,
            keep_latency_samples=True))
        assert repr(result.percentiles) == (
            "{50.0: 0.0007382111046751218, 80.0: 0.001026985588051122, "
            "90.0: 0.001220449497771782, 95.0: 0.0014675313301008588, "
            "99.0: 0.0017379502047449214, 99.9: 0.001801175539627365}")
        assert repr(result.completed) == "228.0"
        columns = repr((list(result.latency_times),
                        list(result.latency_values)))
        assert hashlib.sha256(columns.encode()).hexdigest() == (
            "0f88b8088abf7b17aa600bbff3a275bff4108427"
            "025e4f3e4fcdaf792d880c7e")


class ScriptedThink:
    """A think stream whose ``random()`` returns scripted values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class RecordingConn:
    def __init__(self, sim, user_id, sent):
        self.sim = sim
        self.user_id = user_id
        self.sent = sent
        self.endpoint_a = None

    def attach(self, side, endpoint):
        assert side == "a"
        self.endpoint_a = endpoint

    def transmit(self, message, size, to_side):
        self.sent.append((self.sim.now, self.user_id))


class RecordingServer:
    """Accepts connections that log (time, client) for every send."""

    def __init__(self, sim):
        self.sim = sim
        self.conns = []
        self.sent = []

    def accept_client(self, client):
        conn = RecordingConn(self.sim, client, self.sent)
        self.conns.append(conn)
        return conn
