"""Unit tests for threads, mutexes, and worker pools."""

import pytest

from repro.sim.cpu import Cpu
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.params import CostParams
from repro.sim.threads import (FixedPool, Mutex, OnDemandPool, SimThread,
                               locked_section)


@pytest.fixture
def env():
    sim = Simulator()
    metrics = Metrics()
    params = CostParams().with_overrides(app_cores=2)
    cpu = Cpu(sim, metrics, params)
    return sim, metrics, params, cpu


class TestMutex:
    def test_uncontended_acquire_is_instant(self, env):
        sim, metrics, params, cpu = env
        m = Mutex(sim, cpu, metrics, params, "m")
        t = SimThread(cpu)

        def proc():
            yield from m.acquire(t)
            held_at = sim.now
            yield from m.release(t)
            return held_at

        p = sim.process(proc())
        sim.run()
        assert p.ok
        assert metrics.raw_count("mutex.m.contended") == 0

    def test_mutual_exclusion(self, env):
        sim, metrics, params, cpu = env
        m = Mutex(sim, cpu, metrics, params, "m")
        inside = [0]
        peak = [0]

        def proc(thread):
            yield from m.acquire(thread)
            inside[0] += 1
            peak[0] = max(peak[0], inside[0])
            yield sim.timeout(0.001)
            inside[0] -= 1
            yield from m.release(thread)

        for i in range(5):
            sim.process(proc(SimThread(cpu, f"t{i}")))
        sim.run()
        assert peak[0] == 1
        assert not m.locked

    def test_contention_counted_and_charged(self, env):
        sim, metrics, params, cpu = env
        m = Mutex(sim, cpu, metrics, params, "hot")

        def proc(thread):
            yield from m.acquire(thread)
            yield sim.timeout(0.01)
            yield from m.release(thread)

        sim.process(proc(SimThread(cpu, "a")))
        sim.process(proc(SimThread(cpu, "b")))
        sim.run()
        assert metrics.raw_count("mutex.hot.contended") == 1
        assert metrics.cpu.busy_by_category["lock"] > 0

    def test_release_by_non_owner_rejected(self, env):
        sim, metrics, params, cpu = env
        m = Mutex(sim, cpu, metrics, params, "m")
        a, b = SimThread(cpu, "a"), SimThread(cpu, "b")

        def proc():
            yield from m.acquire(a)
            yield from m.release(b)

        sim.process(proc())
        with pytest.raises(RuntimeError, match="released by"):
            sim.run()

    def test_locked_section_serialises_work(self, env):
        sim, metrics, params, cpu = env
        m = Mutex(sim, cpu, metrics, params, "m")
        finish = []

        def proc(thread):
            yield from locked_section(thread, m, 0.002)
            finish.append(sim.now)

        for i in range(3):
            sim.process(proc(SimThread(cpu, f"t{i}")))
        sim.run()
        # Three 2 ms critical sections cannot overlap.
        assert max(finish) >= 0.006 * 0.999


class TestFixedPool:
    def test_rejects_empty_pool(self, env):
        sim, metrics, params, cpu = env
        with pytest.raises(ValueError):
            FixedPool(sim, cpu, metrics, params, 0)

    def test_runs_submitted_tasks(self, env):
        sim, metrics, params, cpu = env
        pool = FixedPool(sim, cpu, metrics, params, 4, name="fp")
        submitter = SimThread(cpu, "sub")
        ran = []

        def make_task(i):
            def task(worker):
                yield worker.execute(0.0001)
                ran.append(i)
            return task

        def proc():
            for i in range(10):
                yield from pool.submit(submitter, make_task(i))

        sim.process(proc())
        sim.run()
        assert sorted(ran) == list(range(10))
        assert metrics.raw_count("pool.fp.completed") == 10

    def test_worker_count_is_static(self, env):
        sim, metrics, params, cpu = env
        pool = FixedPool(sim, cpu, metrics, params, 3, name="fp")
        assert pool.worker_count == 3
        sim.run(until=1.0)
        assert pool.worker_count == 3  # no termination, no spawn

    def test_parallelism_bounded_by_pool_size(self, env):
        sim, metrics, params, cpu = env
        pool = FixedPool(sim, cpu, metrics, params, 2, name="fp")
        submitter = SimThread(cpu, "sub")
        running = [0]
        peak = [0]

        def task(worker):
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            yield sim.timeout(0.01)
            running[0] -= 1

        def proc():
            for _ in range(6):
                yield from pool.submit(submitter, task)

        sim.process(proc())
        sim.run()
        assert peak[0] <= 2


class TestOnDemandPool:
    def test_spawns_on_demand(self, env):
        sim, metrics, params, cpu = env
        pool = OnDemandPool(sim, cpu, metrics,
                            params.with_overrides(aio_pool_max=8), name="od")
        submitter = SimThread(cpu, "sub")
        assert pool.worker_count == 0

        def task(worker):
            yield sim.timeout(0.005)

        def proc():
            for _ in range(3):
                yield from pool.submit(submitter, task)

        sim.process(proc())
        sim.run(until=0.004)
        assert pool.worker_count == 3
        assert metrics.raw_count("pool.od.spawned") == 3

    def test_spawn_charges_thread_init(self, env):
        sim, metrics, params, cpu = env
        pool = OnDemandPool(sim, cpu, metrics,
                            params.with_overrides(aio_pool_max=8), name="od")
        submitter = SimThread(cpu, "sub")

        def task(worker):
            yield worker.execute(0.0001)

        def proc():
            yield from pool.submit(submitter, task)

        sim.process(proc())
        sim.run(until=0.01)
        assert metrics.cpu.busy_by_category["thread_init"] == pytest.approx(
            params.thread_spawn_cost)

    def test_idle_workers_terminate(self, env):
        sim, metrics, params, cpu = env
        pool = OnDemandPool(sim, cpu, metrics, params.with_overrides(
            aio_pool_max=8, aio_pool_idle_timeout=0.01), name="od")
        submitter = SimThread(cpu, "sub")

        def task(worker):
            yield worker.execute(0.0001)

        def proc():
            yield from pool.submit(submitter, task)

        sim.process(proc())
        sim.run(until=1.0)
        assert pool.worker_count == 0
        assert metrics.raw_count("pool.od.terminated") == 1

    def test_max_size_respected(self, env):
        sim, metrics, params, cpu = env
        pool = OnDemandPool(sim, cpu, metrics,
                            params.with_overrides(aio_pool_max=2), name="od")
        submitter = SimThread(cpu, "sub")

        def task(worker):
            yield sim.timeout(0.1)

        def proc():
            for _ in range(10):
                yield from pool.submit(submitter, task)

        sim.process(proc())
        sim.run(until=0.05)
        assert pool.worker_count == 2

    def test_idle_worker_reused_not_respawned(self, env):
        sim, metrics, params, cpu = env
        pool = OnDemandPool(sim, cpu, metrics, params.with_overrides(
            aio_pool_max=8, aio_pool_idle_timeout=1.0), name="od")
        submitter = SimThread(cpu, "sub")

        def task(worker):
            yield worker.execute(0.0001)

        def proc():
            for _ in range(5):
                yield from pool.submit(submitter, task)
                yield sim.timeout(0.01)  # let the worker go idle again

        sim.process(proc())
        sim.run(until=0.2)
        assert metrics.raw_count("pool.od.spawned") == 1
        assert metrics.raw_count("pool.od.completed") == 5
