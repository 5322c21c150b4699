"""Simulated threads, mutexes, and worker-thread pools.

These primitives carry the *costs* that the paper's perf analysis
attributes to multithreading:

- :class:`Mutex` charges ``futex`` CPU (category ``lock``) on both sides
  of every *contended* hand-off, so lock-contention CPU share (Table 1)
  emerges from actual queueing on shared structures.
  :func:`locked_section`, the form every driver and pool uses, runs as
  one generator; ``Mutex.acquire``/``release`` are its reference.
- :class:`OnDemandPool` implements the JVM-style pool of the Type-2b
  AIO driver: workers are spawned when work arrives and no worker is
  idle (charging ``thread_init`` CPU) and terminate after an idle
  timeout — exactly the dynamics behind Figure 9 and Table 1.
- :class:`FixedPool` is the pre-defined pool of Type-1 async drivers.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, Generator, Optional

from .cpu import Cpu
from .kernel import Event, Simulator
from .metrics import Metrics
from .params import CostParams
from .resources import Queue, QueueTimeout, queue_get_with_timeout

__all__ = ["SimThread", "Mutex", "locked_section", "FixedPool", "OnDemandPool"]

#: A pool task: a callable taking the worker thread and returning a
#: generator to be driven with ``yield from``.
Task = Callable[["SimThread"], Generator]


class SimThread:
    """A simulated OS thread, and its CPU's scheduler record.

    Code *runs as* a thread by passing it to ``cpu.execute``; blocking
    is simply not having a job queued.  The thread belongs to one
    :class:`Cpu`, whose scheduler keeps its state in the last four
    slots.
    """

    __slots__ = ("name", "cpu", "jobs", "queued", "running_on",
                 "last_core")

    def __init__(self, cpu: Cpu, name: str = "") -> None:
        self.cpu = cpu
        self.name = name or f"thread-{next(cpu._thread_numbers)}"
        #: Queued work requests; the thread is runnable while non-empty.
        self.jobs: Deque = deque()
        #: True while sitting in the run queue.
        self.queued = False
        #: The core currently running this thread, if any.
        self.running_on = None
        #: Core this thread last ran on (scheduler affinity hint).
        self.last_core = None

    def execute(self, amount: float, category: str = "app") -> Event:
        """Shorthand for ``cpu.execute(self, amount, category)``."""
        return self.cpu.execute(self, amount, category)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread {self.name}>"


class Mutex:
    """A mutual-exclusion lock with futex-cost accounting.

    ``acquire``/``release`` are coroutine helpers (use with
    ``yield from``): a contended acquire blocks and, when granted,
    charges :attr:`CostParams.futex_cost` to the woken thread; a release
    that wakes a waiter charges the same to the releasing thread
    (futex_wake).  Uncontended operations are free, as on real hardware.
    """

    __slots__ = ("sim", "cpu", "metrics", "params", "name", "owner",
                 "_waiters", "_contended", "_contended_total",
                 "_wait_time_total", "_barged")

    def __init__(self, sim: Simulator, cpu: Cpu, metrics: Metrics,
                 params: CostParams, name: str = "mutex") -> None:
        self.sim = sim
        self.cpu = cpu
        self.metrics = metrics
        self.params = params
        self.name = name
        self.owner: Optional[SimThread] = None
        self._waiters: Deque[Event] = deque()
        # Interned contention counters: no f-string per contended acquire.
        self._contended = metrics.counter(f"mutex.{name}.contended")
        self._contended_total = metrics.counter("mutex.contended_total")
        self._wait_time_total = metrics.counter("mutex.wait_time_total")
        self._barged = metrics.counter(f"mutex.{name}.barged")

    @property
    def locked(self) -> bool:
        return self.owner is not None

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def acquire(self, thread: SimThread):
        """Coroutine: block until the lock is held by *thread*.

        Semantics follow Linux futexes: the lock is *not* handed off
        directly to the oldest waiter (that would convoy two alternating
        threads into contending on every operation); a released lock is
        up for grabs, and a woken waiter that finds it taken re-queues.
        """
        # The fast-path CAS: a real CPU instruction, so competing
        # acquirers serialise through the core instead of interleaving
        # at event granularity.
        yield self.cpu.execute(thread, self.params.cas_cost, "app")
        if self.owner is None:
            self.owner = thread
            return
        yield from self._wait(thread)

    def _wait(self, thread: SimThread):
        """Coroutine: the contended part of an acquire, after the CAS
        found the lock taken; returns once *thread* holds the lock."""
        self._contended.add()
        self._contended_total.add()
        start = self.sim.now
        while True:
            waiter = Event(self.sim)
            self._waiters.append(waiter)
            yield waiter
            # futex_wait return + scheduling back in.
            yield self.cpu.execute(thread, self.params.futex_cost, "lock")
            if self.owner is None:
                self.owner = thread
                self._wait_time_total.add(self.sim.now - start)
                return
            # Barged by another thread between wake-up and running: wait
            # again (counted so pathological convoys are observable).
            self._barged.add()

    def release(self, thread: SimThread):
        """Coroutine: release the lock and wake the next waiter, if any."""
        if self.owner is not thread:
            raise self._not_owner(thread)
        self.owner = None
        woke = False
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.succeed()
                woke = True
                break
        if woke:
            # futex_wake syscall on the releasing side.
            yield self.cpu.execute(thread, self.params.futex_cost, "lock")

    def _not_owner(self, thread: SimThread) -> RuntimeError:
        return RuntimeError(
            f"mutex {self.name} released by {thread.name} but held by "
            f"{self.owner.name if self.owner else None}"
        )


def locked_section(thread: SimThread, mutex: Mutex, hold: float,
                   category: str = "app"):
    """Coroutine: acquire *mutex*, run *hold* seconds of CPU, release.

    This is the unit of every shared-structure operation (pool task
    queues, connection-pool checkout) whose contention the paper
    measures.  It behaves exactly like ``yield from mutex.acquire(t)``,
    ``yield t.execute(hold, category)`` (when *hold* > 0) and
    ``yield from mutex.release(t)``, but runs as one generator: the
    CAS, the hold and the release are written out here, and only a
    contended acquire enters a second one (:meth:`Mutex._wait`).
    """
    cpu = mutex.cpu
    # Mutex.acquire: the fast-path CAS, then the wait if it failed.
    yield cpu.execute(thread, mutex.params.cas_cost, "app")
    if mutex.owner is None:
        mutex.owner = thread
    else:
        yield from mutex._wait(thread)
    if hold > 0:
        yield thread.execute(hold, category)
    # Mutex.release: free the lock, wake one live waiter and pay the
    # futex_wake for it.
    if mutex.owner is not thread:
        raise mutex._not_owner(thread)
    mutex.owner = None
    waiters = mutex._waiters
    while waiters:
        waiter = waiters.popleft()
        if not waiter.triggered:
            waiter.succeed()
            yield cpu.execute(thread, mutex.params.futex_cost, "lock")
            return


class _PoolBase:
    """Shared machinery of fixed and on-demand worker pools."""

    __slots__ = ("sim", "cpu", "metrics", "params", "name", "tasks",
                 "mutex", "worker_count", "idle_count", "busy_count",
                 "_submitted", "_completed")

    def __init__(self, sim: Simulator, cpu: Cpu, metrics: Metrics,
                 params: CostParams, name: str) -> None:
        self.sim = sim
        self.cpu = cpu
        self.metrics = metrics
        self.params = params
        self.name = name
        # FixedPool overrides this with a fair (FIFO) queue.
        self.tasks = Queue(sim, wake_order="lifo")
        self.mutex = Mutex(sim, cpu, metrics, params, name=f"{name}.queue")
        self.worker_count = 0
        self.idle_count = 0
        self.busy_count = 0
        # Interned per-task counters.
        self._submitted = metrics.counter(f"pool.{name}.submitted")
        self._completed = metrics.counter(f"pool.{name}.completed")

    def submit(self, thread: SimThread, task: Task):
        """Coroutine: enqueue *task* from *thread* (charges the critical
        section on the submitter)."""
        yield from locked_section(
            thread, self.mutex, self.params.queue_hold_time, "app")
        self._submitted.add()
        self._before_enqueue(thread)
        self.tasks.put(task)

    def _before_enqueue(self, thread: SimThread) -> None:
        """Hook for on-demand scaling."""

    def _run_task(self, worker: SimThread, task: Task):
        yield from locked_section(
            worker, self.mutex, self.params.queue_hold_time, "app")
        self.busy_count += 1
        try:
            yield from task(worker)
        finally:
            self.busy_count -= 1
        self._completed.add()


class FixedPool(_PoolBase):
    """A pre-defined pool of *size* workers (Type-1 async drivers)."""

    __slots__ = ("size",)

    def __init__(self, sim: Simulator, cpu: Cpu, metrics: Metrics,
                 params: CostParams, size: int, name: str = "fixed") -> None:
        super().__init__(sim, cpu, metrics, params, name)
        if size < 1:
            raise ValueError("pool size must be >= 1")
        # LinkedBlockingQueue semantics: fair FIFO hand-off, so work
        # spreads across all workers (unlike the cached pool's LIFO).
        self.tasks = Queue(sim, wake_order="fifo")
        self.size = size
        for i in range(size):
            worker = SimThread(cpu, name=f"{name}-worker-{i}")
            self.worker_count += 1
            sim.process(self._worker_loop(worker), name=worker.name)

    def _worker_loop(self, worker: SimThread):
        while True:
            self.idle_count += 1
            task = yield self.tasks.get()
            self.idle_count -= 1
            yield from self._run_task(worker, task)


class OnDemandPool(_PoolBase):
    """JVM-style on-demand pool (the Type-2b AIO driver's executor).

    A new worker is spawned when a task is submitted and no worker is
    idle (up to :attr:`CostParams.aio_pool_max`); spawning charges
    :attr:`CostParams.thread_spawn_cost` as ``thread_init`` CPU, the
    overhead perf attributes to "thread initiation" in Table 1.  Workers
    terminate after :attr:`CostParams.aio_pool_idle_timeout` idle.
    """

    __slots__ = ("max_size", "idle_timeout", "_worker_seq",
                 "_spawned", "_terminated")

    def __init__(self, sim: Simulator, cpu: Cpu, metrics: Metrics,
                 params: CostParams, name: str = "ondemand") -> None:
        super().__init__(sim, cpu, metrics, params, name)
        self.max_size = params.aio_pool_max
        self.idle_timeout = params.aio_pool_idle_timeout
        self._worker_seq = itertools.count(1)
        self._spawned = metrics.counter(f"pool.{name}.spawned")
        self._terminated = metrics.counter(f"pool.{name}.terminated")

    def _before_enqueue(self, thread: SimThread) -> None:
        if self.idle_count == 0 and self.worker_count < self.max_size:
            self._spawn()

    def _spawn(self) -> None:
        worker = SimThread(self.cpu, name=f"{self.name}-worker-{next(self._worker_seq)}")
        self.worker_count += 1
        self._spawned.add()
        self.sim.process(self._worker_loop(worker), name=worker.name)

    def _worker_loop(self, worker: SimThread):
        # Thread initialisation cost (stack setup, JVM bookkeeping).
        yield worker.execute(self.params.thread_spawn_cost, "thread_init")
        while True:
            self.idle_count += 1
            try:
                task = yield from queue_get_with_timeout(
                    self.sim, self.tasks, self.idle_timeout)
            except QueueTimeout:
                self.idle_count -= 1
                self.worker_count -= 1
                self._terminated.add()
                return
            self.idle_count -= 1
            yield from self._run_task(worker, task)
