"""CPU cores, run queues, and context-switch accounting.

The application server's performance effects in the paper — collapse of
thread-based drivers under concurrency, lock/wake-up storms, spurious
``select()`` overhead — are all *CPU contention* effects.  This module
models a node's cores explicitly, with Linux-like semantics:

- Threads submit *work requests* (``execute(thread, amount, category)``).
- A thread that finishes one work request and immediately issues another
  (same simulation instant) **keeps its core** — threads run until they
  block or exhaust the scheduler quantum, they are not round-robined per
  micro-operation.
- Switching a core between two distinct threads costs
  :attr:`CostParams.ctx_switch_cost` (charged to the ``ctx_switch`` CPU
  category and counted in ``cpu.<name>.ctx_switches``).
- Runnable threads beyond the core count wait in a FIFO run queue; the
  time-weighted runnable count gives Table 1's "concurrent running
  threads" and Figure 9's timeline.

Hot-path notes (see DESIGN.md "Scheduler hot path"): metric names are
interned once into handle objects; a work request is one :class:`_Job`,
which is also its own completion event (``execute`` returns it); a
completion is one kernel step (run inline when nothing else is due);
and the per-job bookkeeping (load integral, slice length, the slice's
queue entry) is written out inline rather than through helper calls.
There is one schedule: every job runs as per-quantum ``_slice_done``
slices, contended or not.

A job costs one scheduler frame at each end.  ``_slice_done`` is the
whole slice end: the charge, then the job's next slice, or its
completion step (waiters resume, then the core's decision, including
the push of a continuing thread's next slice).  ``execute`` books a
same-instant continuation (the thread still holds its core and has no
job queued, the common case) itself, without ``_submit``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Dict, List, Optional

from .kernel import Event, Simulator
from .metrics import CpuCharger, Metrics
from .params import CostParams

__all__ = ["Cpu"]

#: Remaining-work amounts below this are treated as complete (avoids
#: floating-point dust creating extra slices).
_EPSILON = 1.0e-12


class _Job(Event):
    """One work request, and its own completion event.

    ``execute`` returns the job itself; it triggers when the work is
    done.
    """

    __slots__ = ("remaining", "total", "preempted_at_busy", "charger")

    def __init__(self, sim: Simulator, remaining: float,
                 charger: CpuCharger) -> None:
        # The Event slots, assigned directly (no Event.__init__ frame).
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exception = None
        self.triggered = False
        self.processed = False
        self.remaining = remaining
        self.total = remaining
        #: Interned charge handle for the job's category.
        self.charger = charger
        #: Machine-busy-time stamp of the preemption, or None while the
        #: job's cache state is intact.
        self.preempted_at_busy = None


class _ThreadState:
    """Scheduler-side state of one thread (runnable while ``jobs`` is
    non-empty)."""

    __slots__ = ("thread", "jobs", "queued", "running_on", "last_core")

    def __init__(self, thread) -> None:
        self.thread = thread
        self.jobs: Deque[_Job] = deque()
        #: True while sitting in the run queue.
        self.queued = False
        #: The core currently running this thread, if any.
        self.running_on: Optional["_Core"] = None
        #: Core this thread last ran on (scheduler affinity hint).
        self.last_core: Optional["_Core"] = None


class _Core:
    __slots__ = ("last_thread", "stint_used")

    def __init__(self) -> None:
        #: Thread that last ran here (for context-switch accounting).
        self.last_thread = None
        #: CPU time this thread has used in its current stint.
        self.stint_used = 0.0


class Cpu:
    """A multi-core processor with a shared FIFO run queue."""

    def __init__(self, sim: Simulator, metrics: Metrics, params: CostParams,
                 cores: Optional[int] = None, name: str = "app") -> None:
        self.sim = sim
        self.metrics = metrics
        self.params = params
        self.name = name
        n_cores = cores if cores is not None else params.app_cores
        if n_cores < 1:
            raise ValueError("a CPU needs at least one core")
        self.cores: List[_Core] = [_Core() for _ in range(n_cores)]
        self._idle: Deque[_Core] = deque(self.cores)
        self._run_queue: Deque[_ThreadState] = deque()
        self._states: Dict[int, _ThreadState] = {}
        # Time-weighted load tracking (runnable + running threads).
        self._load_integral = 0.0
        self._load_last_t = 0.0
        self._load_current = 0
        # Interned hot-path handles: no f-string or dict lookup per
        # context switch.
        self._ctx_counter = metrics.counter(f"cpu.{name}.ctx_switches")
        self._ctx_charger = metrics.cpu.charger("ctx_switch")
        self._acct = metrics.cpu
        self._chargers = metrics.cpu._chargers
        self._quantum = params.quantum

    # -- load bookkeeping -------------------------------------------------

    @property
    def runnable_count(self) -> int:
        """Threads currently runnable or running (Fig. 9 metric)."""
        return self._load_current

    def _load_delta(self, delta: int) -> None:
        now = self.sim.now
        self._load_integral += self._load_current * (now - self._load_last_t)
        self._load_last_t = now
        self._load_current += delta

    def load_snapshot(self) -> float:
        """Load integral up to now (for windowed averages)."""
        return self._load_integral + self._load_current * (
            self.sim.now - self._load_last_t)

    def utilization(self) -> float:
        """Windowed utilisation of this CPU's cores (0..1)."""
        return self.metrics.cpu.utilization(self.sim.now, len(self.cores))

    # -- execution ----------------------------------------------------------

    def execute(self, thread, amount: float, category: str = "app") -> Event:
        """Request *amount* seconds of CPU for *thread*.

        Returns the job, an event that triggers when the work has been
        executed.
        """
        if not (amount >= 0):  # also rejects NaN
            raise ValueError("cannot execute negative work")
        state = self._states.get(thread.tid)
        if state is not None and state.running_on is not None \
                and not state.jobs:
            # Same-instant continuation: the thread just finished a job
            # and still holds its core, which picks the new job up when
            # the completion step decides.  This is _submit's
            # became-runnable branch without the dispatch; the load
            # update is skipped when it would add a zero-width interval
            # (the usual case: _slice_done updated it at `now`).
            charger = (self._chargers.get(category)
                       or self._acct.charger(category))
            job = _Job(self.sim, amount, charger)
            state.jobs.append(job)
            now = self.sim.now
            if now != self._load_last_t:
                self._load_integral += self._load_current * (
                    now - self._load_last_t)
                self._load_last_t = now
            self._load_current += 1
            return job
        if amount == 0.0 and self._try_zero_fast_path(thread, category):
            return Event(self.sim).succeed()
        charger = self._chargers.get(category) or self._acct.charger(category)
        job = _Job(self.sim, amount, charger)
        self._submit(thread, job)
        return job

    def _submit(self, thread, job: _Job) -> None:
        state = self._states.get(thread.tid)
        if state is None:
            state = _ThreadState(thread)
            self._states[thread.tid] = state
        jobs = state.jobs
        was_idle = not jobs
        jobs.append(job)
        if was_idle:
            # Thread just became runnable: load integral as in
            # _load_delta(+1), same float expression.  It is off-core
            # (execute books a continuation on a held core itself) and
            # not queued (a queued thread has a job), so enqueue or
            # dispatch it now.
            now = self.sim.now
            self._load_integral += self._load_current * (
                now - self._load_last_t)
            self._load_last_t = now
            self._load_current += 1
            if self._idle:
                # Wake-up affinity: prefer the core this thread last ran
                # on (its cache lines may still be warm there).
                core = state.last_core
                if core is not None and core in self._idle:
                    self._idle.remove(core)
                else:
                    core = self._idle.popleft()
                self._start_stint(core, state)
            else:
                state.queued = True
                self._run_queue.append(state)

    def _try_zero_fast_path(self, thread, category: str) -> bool:
        """Complete zero-length work at this instant, skipping the queue.

        Only applies when the scheduled path would have produced the
        same accounting: the thread must be idle, an idle core must be
        available, and the core the affinity rule would pick must not
        owe a context switch (its last thread was this one, or none).
        Otherwise the caller falls through to the scheduled path, which
        charges the context switch exactly as before.
        """
        if not self._idle:
            return False
        state = self._states.get(thread.tid)
        if state is None:
            state = _ThreadState(thread)
            self._states[thread.tid] = state
        elif state.jobs or state.running_on is not None or state.queued:
            return False
        core = state.last_core
        affine = core is not None and core in self._idle
        if not affine:
            core = self._idle[0]
        if core.last_thread is not None and core.last_thread is not thread:
            return False
        # Replicate the scheduled path's side effects in its exact
        # order: both load deltas stay (they pin the load integral's
        # float association), the idle deque rotates the same way, and
        # the zero charge still links the category handle.
        self._load_delta(+1)
        if affine:
            self._idle.remove(core)
        else:
            self._idle.popleft()
        state.last_core = core
        core.last_thread = thread
        core.stint_used = 0.0
        self.metrics.cpu.charger(category).add(0.0)
        self._load_delta(-1)
        self._idle.append(core)
        return True

    # -- core machinery ----------------------------------------------------

    def _start_stint(self, core: _Core, state: _ThreadState) -> None:
        core.stint_used = 0.0
        state.running_on = core
        state.last_core = core
        overhead = 0.0
        if core.last_thread is not None and core.last_thread is not state.thread:
            # Direct cost plus the indirect cache/TLB refill cost, which
            # grows with the number of threads sharing the caches.
            pressure = min(1.0, self._load_current / self.params.ctx_cache_threads)
            overhead = (self.params.ctx_switch_cost
                        + self.params.ctx_cache_penalty * pressure)
            job = state.jobs[0]
            if job.preempted_at_busy is not None:
                # Resuming a half-done job: refill its working set.  The
                # refill is proportional to the work already performed
                # (capped by the cache size), scaled by how much *other*
                # work ran in between — a brief interruption evicts
                # little, a long wait behind many fat threads evicts
                # everything.  Reactor threads that run jobs to
                # completion on warm caches never pay this.
                acct = self.metrics.cpu
                consumed = min(job.total - job.remaining,
                               self.params.resume_reload_cap)
                other_work = acct.total_busy_ever - job.preempted_at_busy
                evicted = min(1.0, other_work / self.params.resume_reload_cap)
                overhead += (self.params.resume_reload_fraction
                             * consumed * evicted)
                job.preempted_at_busy = None
            self._ctx_counter.add()
            self._ctx_charger.add(overhead)
        core.last_thread = state.thread
        self._run_slice(core, state, overhead)

    def _run_slice(self, core: _Core, state: _ThreadState,
                   extra_delay: float = 0.0) -> None:
        job = state.jobs[0]
        remaining = job.remaining
        quantum = self._quantum
        quantum_left = quantum - core.stint_used
        # min(remaining, max(quantum_left, 0.0)), with a fresh stint
        # after a forced preemption (or for a zero-length job) when
        # that is not positive.
        if quantum_left > 0.0 and remaining > 0.0:
            slice_len = quantum_left if quantum_left < remaining else remaining
        else:
            slice_len = quantum if quantum < remaining else remaining
            core.stint_used = 0.0
        # Bare-callback entry, pushed as call_later(extra_delay +
        # slice_len, ...) would: same time expression, same seq.
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now + (extra_delay + slice_len), seq,
                              self._slice_done, (core, state, job, slice_len)))

    def _slice_done(self, args) -> None:
        """End of a slice, one frame: the charge, then either the job's
        next slice or its completion step."""
        core, state, job, slice_len = args
        # The charge, as job.charger.add(slice_len): the first charge
        # of a category links its handle into the accounting's order.
        charger = job.charger
        acct = self._acct
        if not charger._linked:
            charger._linked = True
            acct._order.append(charger)
        charger.value += slice_len
        acct.total_busy_ever += slice_len
        core.stint_used += slice_len
        job.remaining = remaining = job.remaining - slice_len
        if remaining > _EPSILON:
            # Quantum expired mid-job: preempt if someone is waiting.
            if self._run_queue:
                self._preempt(core, state)
            else:
                core.stint_used = 0.0
                self._run_slice(core, state)
            return
        sim = self.sim
        # Job complete: let the owning process react (it may issue its
        # next work request at once), then decide what this core does.
        jobs = state.jobs
        jobs.popleft()
        if not jobs:
            # As _load_delta(-1), same float expression.
            now = sim.now
            self._load_integral += self._load_current * (
                now - self._load_last_t)
            self._load_last_t = now
            self._load_current -= 1
        # One kernel step (_finish) replaces job.succeed() plus a
        # zero-delay decision entry: those two shared a time and had
        # adjacent seqs, so they always dispatched back to back.  This
        # is a dispatched callback that returns right after the step, so
        # when nothing else is due now the step runs here, written out;
        # the loop would have dispatched it next.
        job.triggered = True
        if not sim._due_now():
            sim._event_count += 1
            callbacks = job.callbacks
            job.callbacks = None
            job.processed = True
            for callback in callbacks:
                callback(job)
            if not jobs:
                # The thread blocked or finished: release the core.
                state.running_on = None
                self._next_thread(core)
            elif core.stint_used < self._quantum or not self._run_queue:
                # The thread continued: _run_slice, written out.  Its
                # time `now + (0.0 + slice_len)` is `now + slice_len`
                # (they differ only in the sign of a zero slice, and
                # `now + -0.0 == now + 0.0`).
                job = jobs[0]
                remaining = job.remaining
                quantum = self._quantum
                quantum_left = quantum - core.stint_used
                if quantum_left > 0.0 and remaining > 0.0:
                    slice_len = (quantum_left if quantum_left < remaining
                                 else remaining)
                else:
                    slice_len = quantum if quantum < remaining else remaining
                    core.stint_used = 0.0
                sim._seq = seq = sim._seq + 1
                heappush(sim._queue, (sim.now + slice_len, seq,
                                      self._slice_done,
                                      (core, state, job, slice_len)))
            else:
                self._preempt(core, state)
            return
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now, seq, self._finish, (core, state, job)))

    def _finish(self, args) -> None:
        """Queued completion step of a job: process its event (its
        waiters resume), then decide what the core does next.  ``_slice_done`` runs the same step in place when
        nothing else is due."""
        core, state, job = args
        callbacks = job.callbacks
        job.callbacks = None
        job.processed = True
        for callback in callbacks:
            callback(job)
        if state.jobs:
            # The thread continued (issued more work in the same instant).
            if core.stint_used < self._quantum or not self._run_queue:
                self._run_slice(core, state)
            else:
                self._preempt(core, state)
        else:
            # The thread blocked or finished: release the core.
            state.running_on = None
            self._next_thread(core)

    def _coalesce_stint(self, *args) -> None:
        """Nothing calls this: every job runs as ``_slice_done`` slices.

        Kept only because ``perfbench/run.py`` reads the attribute to
        count calls into it as ``sim.cpu.coalesced_stints`` (the
        uncontended-stint coalescing this module once had).  That count
        now reads 0, and without the attribute ``--trace 1`` fails.
        """

    # -- preemption / dispatch ---------------------------------------------

    def _preempt(self, core: _Core, state: _ThreadState) -> None:
        state.running_on = None
        state.queued = True
        if state.jobs:
            # The in-progress job may lose its cache lines to whoever
            # runs next; it pays a refill when resumed.
            state.jobs[0].preempted_at_busy = (
                self.metrics.cpu.total_busy_ever)
        self._run_queue.append(state)
        self._next_thread(core)

    def _next_thread(self, core: _Core) -> None:
        # Prefer, among the first few queued threads, one that last ran
        # on this core (bounded scan keeps dispatch O(1)).  Threads that
        # never ran, or whose warm core is this one, are never skipped —
        # affinity must not defeat round-robin fairness.
        queue = self._run_queue
        for offset in range(min(len(queue), 4)):
            state = queue[offset]
            if not state.jobs:
                continue
            if state.last_core is core:
                del queue[offset]
                state.queued = False
                self._start_stint(core, state)
                return
            if state.last_core is None:
                break
        while queue:
            state = queue.popleft()
            state.queued = False
            if state.jobs:
                self._start_stint(core, state)
                return
        self._idle.append(core)
