"""Discrete-event simulation kernel.

This is the foundation of the whole reproduction: a small, fast,
deterministic discrete-event simulator in the style of SimPy, built from
scratch so the repository has no dependency beyond the standard library
and numpy.

The model is the classic *event / process* pair:

- An :class:`Event` is a one-shot waitable cell.  It starts *pending*,
  is *triggered* exactly once with either a value (``succeed``) or an
  exception (``fail``), and then invokes its registered callbacks in
  simulation-time order.

- A :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
  :class:`Event` objects; the process suspends until the yielded event
  triggers and then resumes with the event's value (or the event's
  exception is thrown into the generator).  Helper coroutines compose
  with ``yield from``.

All times are floats in **seconds** of simulated time.  The simulator is
fully deterministic: ties in time are broken by a monotonically
increasing sequence number, so two runs with the same seed produce
byte-identical traces.

Scheduling structure (one binary heap)
--------------------------------------

Every pending entry lives in one ``heapq`` list, ``Simulator._queue``.
Entries are tuples whose first two fields are always ``(time, seq)``;
``seq`` is globally unique, so tuple comparison never reaches the third
field and the heap order is exactly the guarded ``(time, seq)`` order.
Two entry shapes coexist:

- ``(t, seq, event)`` — a triggered :class:`Event` to dispatch, and
- ``(t, seq, fn, arg)`` — a bare callback from :meth:`Simulator.call_later`
  (no Event object allocated at all; used for fire-and-forget work such
  as network message delivery and CPU slice completions).

Every push is one ``heappush``; :meth:`Simulator.run`,
:meth:`Simulator.step` and :meth:`Simulator.peek` take entries from the
head.  An entry is popped before its callback runs, so during dispatch
the head is the next entry and a callback can ask whether anything else
is due at ``now`` (``Simulator._due_now``).  Cancelled :class:`Timeout`
entries (``callbacks is None``) stay in the heap and are skipped at
dispatch without counting.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "CountdownLatch",
    "Simulator",
    "SimulationError",
]

#: Sentinel yielded value type for process generators.
ProcessGenerator = Generator["Event", Any, Any]


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (double trigger, bad yield, ...)."""


class Event:
    """A one-shot waitable occurrence in simulated time.

    Events begin *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* the event: the event is scheduled at the current
    simulation time and, when dispatched, runs its callbacks.

    Callbacks receive the event itself; they read ``event.value`` (or
    observe ``event.exception``).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "triggered", "processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self.triggered = False
        #: True once callbacks have run.
        self.processed = False

    # -- inspection ----------------------------------------------------

    @property
    def value(self) -> Any:
        """The value the event succeeded with (None until triggered)."""
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception the event failed with, if any."""
        return self._exception

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self.triggered and self._exception is None

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes get the exception thrown into their generator.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._exception = exception
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now, seq, self))
        return self

    def _succeed_from(self, other: "Event") -> None:
        """Callback form of :meth:`succeed`: adopt *other*'s value if
        this event is still pending.

        Lets a :class:`Timeout` race a pending event without an
        :class:`AnyOf` allocation::

            timer.add_callback(waiter._succeed_from)
        """
        if not self.triggered:
            self.succeed(other._value)

    # -- internal ------------------------------------------------------

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self.processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback*; runs immediately if already processed."""
        if self.callbacks is None:
            # Already processed: run at once (still at the same sim time).
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay.

    Timeouts are the kernel's hottest allocation (every simulated CPU
    slice, network hop, and think-time pause is one), so ``__init__``
    assigns the Event slots and pushes the queue entry directly instead
    of going through ``Event.__init__`` + ``succeed``.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not (delay >= 0):  # also rejects NaN
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self.triggered = True
        self.processed = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now + delay, seq, self))

    def cancel(self) -> None:
        """Lazily cancel the timeout.

        The queue entry stays where it is; the dispatch loop recognises
        the cleared callback list, skips the entry without counting it,
        and never advances the clock for it.  A no-op if the timeout
        already fired.
        """
        self.callbacks = None


class Process(Event):
    """Drives a generator, suspending on each yielded :class:`Event`.

    A Process is itself an Event: it triggers when the generator returns
    (value = generator return value) or raises (event fails), so
    processes can wait on other processes.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        self.generator = generator
        # Bound-method caches: _resume runs once per event the process
        # waits on, so shaving the attribute lookups is measurable.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off at the current time with a bare-callback entry: the
        # shared pre-made null event stands in for a bootstrap Event, so
        # starting a process allocates nothing beyond the queue tuple.
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now, seq, self._resume, sim._null_event))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._exception is not None:
                target = self._throw(event._exception)
            else:
                target = self._send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001
            if self.callbacks:
                # Someone is waiting on this process: deliver the failure.
                self.fail(exc)
                return
            # Unobserved failure: crash the simulation loudly rather than
            # letting a dead server thread look like zero throughput.
            raise
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
            self.generator.close()
            if self.callbacks:
                self.fail(exc)
                return
            raise exc
        self._waiting_on = target
        # Inlined target.add_callback(self._resume) — one per yield.
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} alive={self.is_alive}>"


class AnyOf(Event):
    """Triggers when the first of *events* triggers.

    The value is the (event, value) pair of the winner.  Late triggers of
    the remaining events are ignored.
    """

    __slots__ = ("_done",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._done = False
        events = list(events)
        if not events:
            raise ValueError("AnyOf requires at least one event")
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._done:
            return
        self._done = True
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed((event, event._value))


class CountdownLatch(Event):
    """A fixed-width fanout completion latch.

    One allocation up front, one integer decrement per completion: a
    fanout-20 join is this latch plus twenty :meth:`count_down` calls
    instead of an :class:`AllOf` with twenty child Event registrations.
    The latch succeeds (value ``None``) when the count reaches zero; a
    count of zero succeeds immediately.

    :meth:`count_down` accepts and ignores an optional argument so it
    can be registered directly as an event callback::

        latch = sim.latch(len(children))
        for child in children:
            child.add_callback(latch.count_down)
    """

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", count: int) -> None:
        super().__init__(sim)
        count = int(count)
        if count < 0:
            raise ValueError(f"negative latch count: {count}")
        self._remaining = count
        if count == 0:
            self.succeed(None)

    @property
    def remaining(self) -> int:
        """Completions still outstanding."""
        return self._remaining

    def count_down(self, _event: Optional[Event] = None) -> None:
        """Record one completion; trigger the latch on the last one."""
        remaining = self._remaining - 1
        if remaining < 0:
            raise SimulationError("count_down() on an exhausted latch")
        self._remaining = remaining
        if remaining == 0 and not self.triggered:
            self.succeed(None)


class AllOf(Event):
    """Triggers when every one of *events* has triggered.

    The value is the list of child values in the original order.  If any
    child fails, this event fails with the first failure.
    """

    __slots__ = ("_events", "_remaining", "_failed")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        self._failed = False
        if not self._events:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._failed:
            return
        if event._exception is not None:
            self._failed = True
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self._events])


class Simulator:
    """The event loop: one binary heap of triggered events.

    Usage::

        sim = Simulator()
        sim.process(some_generator_function(sim))
        sim.run(until=10.0)
    """

    __slots__ = ("_seq", "now", "_event_count", "tracer", "_queue",
                 "_null_event")

    def __init__(self) -> None:
        self._seq = 0
        #: Current simulation time in seconds.
        self.now = 0.0
        #: Total number of events processed (for diagnostics).
        self._event_count = 0
        #: Optional :class:`repro.trace.Tracer` (None = tracing off;
        #: every hook in the stack is one attribute test against this).
        self.tracer = None
        #: Pending entries, a heap ordered by ``(time, seq)``.
        self._queue: List[Any] = []
        self._null_event = Event(self)

    # -- factory helpers ------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after *delay* seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start driving *generator* as a process."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering on the first of *events*."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering once all *events* have triggered."""
        return AllOf(self, events)

    def latch(self, count: int) -> CountdownLatch:
        """A :class:`CountdownLatch` for *count* completions."""
        return CountdownLatch(self, count)

    # -- scheduling ------------------------------------------------------

    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Schedule ``fn(arg)`` after *delay* seconds — no Event allocated.

        This is the fire-and-forget fast path for internal machinery
        (network delivery, CPU slice completion): one queue tuple instead
        of a Timeout + callback list + closure.  The callback cannot be
        cancelled or waited on; use :meth:`timeout` for that.
        """
        if not (delay >= 0):  # also rejects NaN
            raise ValueError(f"negative call_later delay: {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self.now + delay, seq, fn, arg))

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at absolute time *when* — no Event allocated.

        Like :meth:`call_later`, but takes the target instant directly so
        callers replaying a precomputed timeline (:meth:`call_every`'s
        absolute tick times) hit the exact float they computed instead
        of re-deriving it through ``now + (when - now)``.
        """
        if not (when >= self.now):  # also rejects NaN
            raise ValueError(
                f"call_at target {when} is before now={self.now}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (when, seq, fn, arg))

    def call_every(self, period: float, fn: Callable[[float], None]) -> None:
        """Invoke ``fn(now)`` every *period* simulated seconds, starting
        at ``now + period`` — the telemetry-ticker primitive.

        Built on :meth:`call_at` with absolute tick times, so tick *k*
        fires at exactly ``start + k * accumulated-period`` floats and
        the schedule is a pure function of the start time.  One bare
        callback tuple per tick, no Event allocation, no cancellation
        handle: the chain simply stops dispatching when the run ends.
        Observation-only callbacks (no RNG draws, no state mutation)
        keep measured results float-identical — extra queue entries
        shift sequence numbers uniformly, never the relative order of
        any two other events.
        """
        if period <= 0.0 or not math.isfinite(period):
            raise ValueError(f"call_every period must be positive, "
                             f"got {period}")

        def tick(when: float) -> None:
            fn(when)
            self.call_at(when + period, tick, when + period)

        self.call_at(self.now + period, tick, self.now + period)

    def _push_slow(self, entry: Any) -> None:
        """Push *entry*; nothing in the kernel calls this.

        Kept only because ``perfbench/run.py`` reads the attribute to
        count ``heappush`` calls made from it as ``sim.kernel.far_pushes``
        (the far-heap overflow of an earlier scheduler).  That count now
        reads 0, and without the attribute ``--trace 1`` fails.
        """
        heappush(self._queue, entry)

    def _due_now(self) -> bool:
        """True if another queue entry is due at ``now``.

        The entry being dispatched is already popped, so the heap head
        is the next one.  A cancelled :class:`Timeout` at ``now`` counts
        as due (the conservative answer).

        Valid only from a dispatched callback in *tail position* — one
        whose caller returns straight to the dispatch loop.  Such a
        callback may then run a follow-up step for ``now`` inline
        instead of queueing it: when nothing is due, the loop would have
        dispatched that entry next.
        """
        queue = self._queue
        return bool(queue) and queue[0][0] <= self.now

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Process the single next event; return False if none remain."""
        queue = self._queue
        while queue:
            item = heappop(queue)
            if len(item) == 3:
                event = item[2]
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # cancelled: skip silently, no count
                event.callbacks = None
                event.processed = True
                self.now = item[0]
                self._event_count += 1
                for callback in callbacks:
                    callback(event)
                return True
            self.now = item[0]
            self._event_count += 1
            item[2](item[3])
            return True
        return False

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None when idle.

        Cancelled entries at the head are purged as a side effect.
        """
        queue = self._queue
        while queue:
            item = queue[0]
            if len(item) != 3 or item[2].callbacks is not None:
                return item[0]
            heappop(queue)
        return None

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches *until*.

        When *until* is given, ``now`` is advanced to exactly *until*
        even if the last event fired earlier, so measurement windows have
        a precise width.
        """
        if until is None:
            bound = math.inf
        elif not (until >= self.now):  # also rejects NaN
            raise ValueError(f"until={until} is in the past (now={self.now})")
        else:
            bound = until
        # One loop for both modes (bound = +inf drains the queue).  Each
        # entry is popped before its callback runs, so callbacks can ask
        # _due_now(); _event_count is settled in `finally` so a raising
        # callback can't lose the count.
        queue = self._queue
        count = 0
        try:
            while queue:
                when = queue[0][0]
                if when > bound:
                    break
                item = heappop(queue)
                if len(item) == 3:
                    event = item[2]
                    # Inlined Event._run_callbacks (one method call per
                    # event adds up across an exhibit grid).
                    callbacks = event.callbacks
                    if callbacks is None:
                        continue  # cancelled Timeout: skip, no count
                    event.callbacks = None
                    event.processed = True
                    self.now = when
                    count += 1
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                else:
                    # (t, seq, fn, arg) bare-callback entry.
                    self.now = when
                    count += 1
                    item[2](item[3])
        finally:
            self._event_count += count
        if until is not None:
            self.now = until
