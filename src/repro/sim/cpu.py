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
a continuing thread's next slice).  It is also a loop over back-to-back
slice ends: whenever the entry ``Simulator.run`` would dispatch next is
another slice end of this CPU, due within the run's bound, it pops that
entry and runs it in place, and a continuing thread's next slice that
ends before everything queued is never pushed at all.  ``execute``
books a same-instant continuation (the thread still holds its core and
has no job queued, the common case) itself, without ``_submit``.

The scheduler's per-thread state (queued jobs, run-queue flag, current
and last core) lives on the :class:`~repro.sim.threads.SimThread`
itself; a thread belongs to the one ``Cpu`` it was made for.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from heapq import heappop, heappush
from typing import Deque, List, Optional

from .kernel import Event, Simulator
from .metrics import CpuCharger, Metrics
from .params import CostParams

__all__ = ["Cpu"]

#: Remaining-work amounts below this are treated as complete (avoids
#: floating-point dust creating extra slices).
_EPSILON = 1.0e-12

#: Stands in for the head of an empty heap: due never, not a slice.
_NO_ENTRY = (math.inf, 0, None, None)


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
        self._run_queue: Deque = deque()
        #: Default names of unnamed threads: ``thread-1``, ``thread-2``, …
        self._thread_numbers = itertools.count(1)
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
        #: The bound ``_slice_done``, made once: every slice entry
        #: carries this one object, so ``_slice_done`` can tell its own
        #: entries at the heap head by identity.
        self._slice_done_cb = self._slice_done

    # -- load bookkeeping -------------------------------------------------

    @property
    def runnable_count(self) -> int:
        """Threads currently runnable or running (Fig. 9 metric)."""
        return self._load_current

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
        executed.  *thread* must belong to this CPU.
        """
        if not (amount >= 0):  # also rejects NaN
            raise ValueError("cannot execute negative work")
        if thread.cpu is not self:
            raise ValueError(f"{thread!r} belongs to CPU "
                             f"{thread.cpu.name!r}, not {self.name!r}")
        if thread.running_on is not None and not thread.jobs:
            # Same-instant continuation: the thread just finished a job
            # and still holds its core, which picks the new job up when
            # the completion step decides.  This is _submit's
            # became-runnable branch without the dispatch; the load
            # update is skipped when it would add a zero-width interval
            # (the usual case: _slice_done updated it at `now`).
            charger = (self._chargers.get(category)
                       or self._acct.charger(category))
            job = _Job(self.sim, amount, charger)
            thread.jobs.append(job)
            now = self.sim.now
            if now != self._load_last_t:
                self._load_integral += self._load_current * (
                    now - self._load_last_t)
                self._load_last_t = now
            self._load_current += 1
            return job
        charger = self._chargers.get(category) or self._acct.charger(category)
        job = _Job(self.sim, amount, charger)
        self._submit(thread, job)
        return job

    def _submit(self, thread, job: _Job) -> None:
        jobs = thread.jobs
        was_idle = not jobs
        jobs.append(job)
        if was_idle:
            # Thread just became runnable: advance the load integral to
            # now, then count it runnable.  It is off-core
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
                core = thread.last_core
                if core is not None and core in self._idle:
                    self._idle.remove(core)
                else:
                    core = self._idle.popleft()
                self._start_stint(core, thread)
            else:
                thread.queued = True
                self._run_queue.append(thread)

    # -- core machinery ----------------------------------------------------

    def _start_stint(self, core: _Core, thread) -> None:
        core.stint_used = 0.0
        thread.running_on = core
        thread.last_core = core
        overhead = 0.0
        if core.last_thread is not None and core.last_thread is not thread:
            # Direct cost plus the indirect cache/TLB refill cost, which
            # grows with the number of threads sharing the caches.
            pressure = min(1.0, self._load_current / self.params.ctx_cache_threads)
            overhead = (self.params.ctx_switch_cost
                        + self.params.ctx_cache_penalty * pressure)
            job = thread.jobs[0]
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
        core.last_thread = thread
        self._run_slice(core, thread, overhead)

    def _run_slice(self, core: _Core, thread,
                   extra_delay: float = 0.0) -> None:
        job = thread.jobs[0]
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
                              self._slice_done_cb,
                              (core, thread, job, slice_len)))

    def _slice_done(self, args, queued_step: bool = False) -> None:
        """End of a slice: the charge, then either the job's next slice
        or its completion step; then, in place, every slice end of this
        CPU that the run loop would dispatch next.

        *args* is the slice entry's ``(core, thread, job, slice_len)``.
        With *queued_step* the slice was already charged and the job
        completed, and only its completion step (``_finish``) is left.

        Each pass ends in *tail position*: the caller returns straight
        to the run loop, as for ``Simulator._due_now``.  So when the
        heap head is one of this CPU's slice entries, due within the
        run's bound (``Simulator._bound``, ``-inf`` outside ``run``),
        the loop would pop it next: the pass pops it, sets ``now``,
        counts it and goes round again.  A continuing thread's next
        slice that ends strictly before the head (and within the bound)
        is not pushed at all: it would be the head.  Its ``seq`` is
        still taken, so every later entry's ``seq`` is unchanged.
        """
        sim = self.sim
        queue = sim._queue
        bound = sim._bound
        slice_done = self._slice_done_cb
        acct = self._acct
        quantum = self._quantum
        run_queue = self._run_queue
        core, thread, job, slice_len = args
        # Events run here, added to the kernel's count on the way out
        # (also if a callback raises, as the run loop does).
        count = 0
        try:
            while True:
                if queued_step:
                    queued_step = False
                    jobs = thread.jobs
                    step = True
                else:
                    # The charge, as job.charger.add(slice_len): the
                    # first charge of a category links its handle into
                    # the accounting's order.
                    charger = job.charger
                    if not charger._linked:
                        charger._linked = True
                        acct._order.append(charger)
                    charger.value += slice_len
                    acct.total_busy_ever += slice_len
                    core.stint_used += slice_len
                    job.remaining = remaining = job.remaining - slice_len
                    if remaining > _EPSILON:
                        # Quantum expired mid-job: preempt if someone is
                        # waiting, else go on with a fresh stint.
                        step = False
                        if run_queue:
                            self._preempt(core, thread)
                            job = None
                        else:
                            core.stint_used = 0.0
                    else:
                        # Job complete: let the owning process react (it
                        # may issue its next work request at once), then
                        # decide what this core does.
                        jobs = thread.jobs
                        jobs.popleft()
                        if not jobs:
                            # The thread blocks: advance the load
                            # integral to now, then count it off the CPU.
                            now = sim.now
                            self._load_integral += self._load_current * (
                                now - self._load_last_t)
                            self._load_last_t = now
                            self._load_current -= 1
                        # One kernel step replaces job.succeed() plus a
                        # zero-delay decision entry: those two shared a
                        # time and had adjacent seqs, so they always
                        # dispatched back to back.  When nothing else is
                        # due now the step runs here (the loop would have
                        # dispatched it next); otherwise it is queued as
                        # _finish.
                        job.triggered = True
                        step = not sim._due_now()
                        if step:
                            count += 1
                        else:
                            sim._seq = seq = sim._seq + 1
                            heappush(queue, (sim.now, seq, self._finish,
                                             (core, thread, job, slice_len)))
                            job = None
                if step:
                    callbacks = job.callbacks
                    job.callbacks = None
                    job.processed = True
                    for callback in callbacks:
                        callback(job)
                    if not jobs:
                        # The thread blocked or finished: release the
                        # core.
                        thread.running_on = None
                        self._next_thread(core)
                        job = None
                    elif core.stint_used < quantum or not run_queue:
                        # The thread continued (issued more work in the
                        # same instant).
                        job = jobs[0]
                    else:
                        self._preempt(core, thread)
                        job = None
                if job is not None:
                    # The thread's next slice: _run_slice, written out.
                    # Its time `now + (0.0 + slice_len)` is `now +
                    # slice_len` (they differ only in the sign of a zero
                    # slice, and `now + -0.0 == now + 0.0`).
                    remaining = job.remaining
                    quantum_left = quantum - core.stint_used
                    if quantum_left > 0.0 and remaining > 0.0:
                        slice_len = (quantum_left if quantum_left < remaining
                                     else remaining)
                    else:
                        slice_len = quantum if quantum < remaining else remaining
                        core.stint_used = 0.0
                    when = sim.now + slice_len
                    sim._seq = seq = sim._seq + 1
                    head = queue[0] if queue else _NO_ENTRY
                    if when < head[0] and when <= bound:
                        sim.now = when
                        count += 1
                        continue
                    # Pushed at or after the head, which stays the head,
                    # or past the bound, and then so is the head.
                    heappush(queue, (when, seq, slice_done,
                                     (core, thread, job, slice_len)))
                else:
                    head = queue[0] if queue else _NO_ENTRY
                if head[2] is slice_done and head[0] <= bound:
                    heappop(queue)
                    sim.now = head[0]
                    count += 1
                    core, thread, job, slice_len = head[3]
                    continue
                return
        finally:
            sim._event_count += count

    def _finish(self, args) -> None:
        """Queued completion step of a job (*args* is its last slice's
        entry): its waiters resume, then the core decides, on
        ``_slice_done``'s one decision path."""
        self._slice_done(args, True)

    def _coalesce_stint(self, *args) -> None:
        """Nothing calls this: every job runs as ``_slice_done`` slices.

        Kept only because ``perfbench/run.py`` reads the attribute to
        count calls into it as ``sim.cpu.coalesced_stints`` (the
        uncontended-stint coalescing this module once had).  That count
        now reads 0, and without the attribute ``--trace 1`` fails.
        """

    # -- preemption / dispatch ---------------------------------------------

    def _preempt(self, core: _Core, thread) -> None:
        thread.running_on = None
        thread.queued = True
        if thread.jobs:
            # The in-progress job may lose its cache lines to whoever
            # runs next; it pays a refill when resumed.
            thread.jobs[0].preempted_at_busy = (
                self.metrics.cpu.total_busy_ever)
        self._run_queue.append(thread)
        self._next_thread(core)

    def _next_thread(self, core: _Core) -> None:
        # Prefer, among the first few queued threads, one that last ran
        # on this core (bounded scan keeps dispatch O(1)).  Threads that
        # never ran, or whose warm core is this one, are never skipped —
        # affinity must not defeat round-robin fairness.
        queue = self._run_queue
        for offset in range(min(len(queue), 4)):
            thread = queue[offset]
            if not thread.jobs:
                continue
            if thread.last_core is core:
                del queue[offset]
                thread.queued = False
                self._start_stint(core, thread)
                return
            if thread.last_core is None:
                break
        while queue:
            thread = queue.popleft()
            thread.queued = False
            if thread.jobs:
                self._start_stint(core, thread)
                return
        self._idle.append(core)
