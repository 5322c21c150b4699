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

Scheduling structure (calendar queue)
-------------------------------------

The scheduler is a *calendar queue* rather than a single binary heap.
Entries are tuples whose first two fields are always ``(time, seq)``;
``seq`` is globally unique, so tuple comparison never reaches the third
field and the total order is exactly the guarded ``(time, seq)`` order.
Two entry shapes coexist:

- ``(t, seq, event)`` — a triggered :class:`Event` to dispatch, and
- ``(t, seq, fn, arg)`` — a bare callback from :meth:`Simulator.call_later`
  (no Event object allocated at all; used for fire-and-forget work such
  as network message delivery and CPU slice completions).

Entries live in one of three places, by virtual bucket
``vb = int(t * inv_width)``:

- ``_active`` — an ascending-sorted list holding every entry with
  ``vb <= _vb`` (the consumed horizon).  It is consumed by advancing an
  index (``_apos``), not by popping, and new same-instant entries are
  ``bisect.insort``-ed — because fresh entries carry the largest ``seq``,
  they land at (or near) the tail, so the insert is O(1) memmove in the
  common case.  Both :meth:`Simulator.run` and :meth:`Simulator.step`
  keep ``_apos`` current while a callback runs (it already points past
  the entry being dispatched), so a callback can ask whether anything
  else is due at ``now`` (``Simulator._due_now``).
- ``_buckets`` — a power-of-two ring of unsorted lists covering one
  *revolution* of virtual buckets ``(_vb, _vb + nbuckets)``.  Pushing is
  a plain ``list.append``; a bucket is sorted only when it becomes the
  new ``_active`` (Timsort on an almost-sorted run, since appends arrive
  in ``seq`` order).
- ``_far`` — a binary-heap fallback for entries beyond the current
  revolution (think-time pauses, idle timeouts).  It is drained into the
  ring as the horizon advances.

When occupancy drifts (more than ~2 entries per bucket, or the ring is
nearly empty) the next refill *resizes*: bucket width is re-derived from
the observed span of pending entries and everything is re-placed.
Cancelled :class:`Timeout` entries (``callbacks is None``) are skipped at
dispatch without counting and dropped wholesale during a resize.
"""

from __future__ import annotations

import math
from bisect import insort
from heapq import heapify, heappop, heappush
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

# Calendar-queue tuning.  The defaults favour the exhibits' event mix
# (microsecond-scale service events + second-scale think timers): a
# 100 us bucket keeps one request's causal chain inside a bucket or two
# while think timers overflow to the far heap until their bucket nears.
_DEFAULT_WIDTH = 1e-4
_MIN_BUCKETS = 256
_MAX_BUCKETS = 1 << 16
_ITEMS_PER_BUCKET = 4
#: Resize trigger for the active list (covers both a consumed prefix
#: that was never compacted and a same-bucket burst); doubled when a
#: resize cannot split the entries (zero time span).
_ACTIVE_LIMIT = 8192


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
        # t == sim.now: every pending bucket/far entry is strictly later,
        # so the entry belongs in the active list unconditionally.
        active = sim._active
        insort(active, (sim.now, seq, self))
        if len(active) > sim._active_limit:
            sim._pending_resize = True
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
        active = sim._active
        insort(active, (sim.now, seq, self))
        if len(active) > sim._active_limit:
            sim._pending_resize = True
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
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self.triggered = True
        self.processed = False
        sim._seq = seq = sim._seq + 1
        t = sim.now + delay
        vb = int(t * sim._inv_w)
        if sim._vb < vb < sim._vbh:
            sim._buckets[vb & sim._mask].append((t, seq, self))
            sim._nbucket += 1
        else:
            sim._push_slow(t, vb, (t, seq, self))

    def cancel(self) -> None:
        """Lazily cancel the timeout.

        The queue entry stays where it is; the dispatch loop recognises
        the cleared callback list, skips the entry without counting it,
        and never advances the clock for it.  Resizes drop cancelled
        entries wholesale.  A no-op if the timeout already fired.
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
        active = sim._active
        insort(active, (sim.now, seq, self._resume, sim._null_event))
        if len(active) > sim._active_limit:
            sim._pending_resize = True

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
    """The event loop: a calendar queue of triggered events.

    Usage::

        sim = Simulator()
        sim.process(some_generator_function(sim))
        sim.run(until=10.0)

    *bucket_width* overrides the initial calendar bucket width in
    seconds (the width self-tunes afterwards); it exists for tests that
    force the far-heap or all-active paths.
    """

    __slots__ = (
        "_seq", "now", "_event_count", "tracer",
        "_width", "_inv_w", "_nbuckets", "_mask", "_buckets",
        "_vb", "_vbh", "_active", "_apos", "_far", "_nbucket", "_nfar",
        "_pending_resize", "_active_limit", "_null_event",
    )

    def __init__(self, bucket_width: Optional[float] = None) -> None:
        self._seq = 0
        #: Current simulation time in seconds.
        self.now = 0.0
        #: Total number of events processed (for diagnostics).
        self._event_count = 0
        #: Optional :class:`repro.trace.Tracer` (None = tracing off;
        #: every hook in the stack is one attribute test against this).
        self.tracer = None
        width = _DEFAULT_WIDTH if bucket_width is None else float(bucket_width)
        if width <= 0.0 or not math.isfinite(width):
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        self._width = width
        self._inv_w = 1.0 / width
        self._nbuckets = _MIN_BUCKETS
        self._mask = _MIN_BUCKETS - 1
        self._buckets: List[List[Any]] = [[] for _ in range(_MIN_BUCKETS)]
        self._vb = 0
        self._vbh = _MIN_BUCKETS
        self._active: List[Any] = []
        self._apos = 0
        self._far: List[Any] = []
        self._nbucket = 0
        self._nfar = 0
        self._pending_resize = False
        self._active_limit = _ACTIVE_LIMIT
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
        if delay < 0:
            raise ValueError(f"negative call_later delay: {delay}")
        self._seq = seq = self._seq + 1
        t = self.now + delay
        vb = int(t * self._inv_w)
        if self._vb < vb < self._vbh:
            self._buckets[vb & self._mask].append((t, seq, fn, arg))
            self._nbucket += 1
        else:
            self._push_slow(t, vb, (t, seq, fn, arg))

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at absolute time *when* — no Event allocated.

        Like :meth:`call_later`, but takes the target instant directly so
        callers replaying a precomputed timeline (e.g. coalesced CPU
        stints) hit the exact float they computed instead of re-deriving
        it through ``now + (when - now)``.
        """
        if when < self.now:
            raise ValueError(
                f"call_at target {when} is before now={self.now}")
        self._seq = seq = self._seq + 1
        vb = int(when * self._inv_w)
        if self._vb < vb < self._vbh:
            self._buckets[vb & self._mask].append((when, seq, fn, arg))
            self._nbucket += 1
        else:
            self._push_slow(when, vb, (when, seq, fn, arg))

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

    def _schedule(self, delay: float, event: Event) -> None:
        self._seq = seq = self._seq + 1
        t = self.now + delay
        vb = int(t * self._inv_w)
        if self._vb < vb < self._vbh:
            self._buckets[vb & self._mask].append((t, seq, event))
            self._nbucket += 1
        else:
            self._push_slow(t, vb, (t, seq, event))

    def _push_slow(self, t: float, vb: int, entry: Any) -> None:
        """Entry falls outside the bucket ring: far heap or active list."""
        if vb > self._vb:
            heappush(self._far, entry)
            self._nfar += 1
        else:
            active = self._active
            insort(active, entry)
            if len(active) > self._active_limit:
                self._pending_resize = True

    def _due_now(self) -> bool:
        """True if another queue entry is due at ``now``.

        Only the active list after the cursor can hold one: bucket-ring
        and far-heap entries lie in later virtual buckets, so strictly
        after ``now``.  A cancelled :class:`Timeout` at ``now`` counts
        as due (the conservative answer).

        Valid only from a dispatched callback in *tail position* — one
        whose caller returns straight to the dispatch loop — since the
        cursor is only meaningful there.  Such a callback may then run a
        follow-up step for ``now`` inline instead of queueing it: when
        nothing is due, the loop would have dispatched that entry next.
        """
        active = self._active
        apos = self._apos
        return apos < len(active) and active[apos][0] <= self.now

    # -- calendar maintenance -------------------------------------------

    def _drain_far(self) -> None:
        """Move far-heap entries that now fall inside the ring."""
        far = self._far
        inv_w = self._inv_w
        vbh = self._vbh
        buckets = self._buckets
        mask = self._mask
        moved = 0
        while far:
            vb = int(far[0][0] * inv_w)
            if vb >= vbh:
                break
            buckets[vb & mask].append(heappop(far))
            moved += 1
        self._nfar -= moved
        self._nbucket += moved

    def _refill(self) -> bool:
        """Consume the next non-empty bucket into ``_active``.

        Precondition: the active list is exhausted (``_apos`` synced and
        at the end).  Returns False when no entries remain anywhere.
        """
        total = self._nbucket + self._nfar
        if total == 0:
            return False
        nbuckets = self._nbuckets
        if total > (nbuckets << 1) or (
                nbuckets > _MIN_BUCKETS and total < (nbuckets >> 3)):
            self._resize()
            if self._apos < len(self._active):
                return True
            if self._nbucket == 0 and not self._far:
                # Everything pending turned out to be cancelled.
                return False
        if self._nbucket == 0:
            # All buckets empty: hop the window straight to the far head
            # instead of scanning revolution by revolution.
            jump = int(self._far[0][0] * self._inv_w) - 1
            if jump > self._vb:
                self._vb = jump
                self._vbh = jump + self._nbuckets
            self._drain_far()
        buckets = self._buckets
        mask = self._mask
        vb = self._vb
        while True:
            vb += 1
            bucket = buckets[vb & mask]
            if bucket:
                break
        buckets[vb & mask] = []
        self._vb = vb
        self._vbh = vb + self._nbuckets
        self._nbucket -= len(bucket)
        if len(bucket) > 1:
            # Appends arrive in seq order, so runs are nearly sorted.
            bucket.sort()
        self._active = bucket
        self._apos = 0
        if self._far:
            self._drain_far()
        return True

    def _resize(self) -> None:
        """Re-derive bucket width from pending entries and re-place them.

        Also acts as compaction: the consumed active prefix and any
        cancelled entries are dropped.
        """
        items = self._active[self._apos:]
        for bucket in self._buckets:
            if bucket:
                items.extend(bucket)
        items.extend(self._far)
        items = [it for it in items
                 if len(it) != 3 or it[2].callbacks is not None]
        n = len(items)
        width = self._width
        if n >= 2:
            tmin = tmax = items[0][0]
            for it in items:
                t = it[0]
                if t < tmin:
                    tmin = t
                elif t > tmax:
                    tmax = t
            span = tmax - tmin
            if span > 0.0:
                candidate = span * _ITEMS_PER_BUCKET / n
                if candidate > 0.0 and math.isfinite(candidate):
                    width = candidate
        nbuckets = 1 << max(_MIN_BUCKETS.bit_length() - 1,
                            (n // _ITEMS_PER_BUCKET).bit_length())
        if nbuckets > _MAX_BUCKETS:
            nbuckets = _MAX_BUCKETS
        self._width = width
        self._inv_w = inv_w = 1.0 / width
        self._nbuckets = nbuckets
        self._mask = mask = nbuckets - 1
        self._vb = vb0 = int(self.now * inv_w)
        self._vbh = vbh = vb0 + nbuckets
        buckets: List[List[Any]] = [[] for _ in range(nbuckets)]
        active: List[Any] = []
        far: List[Any] = []
        for it in items:
            vb = int(it[0] * inv_w)
            if vb <= vb0:
                active.append(it)
            elif vb < vbh:
                buckets[vb & mask].append(it)
            else:
                far.append(it)
        active.sort()
        heapify(far)
        self._buckets = buckets
        self._active = active
        self._apos = 0
        self._far = far
        self._nfar = len(far)
        self._nbucket = n - len(active) - len(far)
        self._pending_resize = False
        # If the entries would not split (zero span), raise the trigger
        # so the resize is not immediately re-requested.
        self._active_limit = max(_ACTIVE_LIMIT, 2 * len(active))

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Process the single next event; return False if none remain."""
        while True:
            active = self._active
            apos = self._apos
            if apos >= len(active):
                if not self._refill():
                    return False
                continue
            item = active[apos]
            self._apos = apos + 1
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

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None when idle.

        Cancelled entries at the head are purged as a side effect.
        """
        while True:
            active = self._active
            n = len(active)
            apos = self._apos
            while apos < n:
                item = active[apos]
                if len(item) != 3 or item[2].callbacks is not None:
                    self._apos = apos
                    return item[0]
                apos += 1
            self._apos = apos
            if not self._refill():
                return None

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches *until*.

        When *until* is given, ``now`` is advanced to exactly *until*
        even if the last event fired earlier, so measurement windows have
        a precise width.
        """
        if until is None:
            bound = math.inf
        elif until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        else:
            bound = until
        # One loop for both modes (bound = +inf drains the queue), with
        # the active list and cursor held in locals.  Callbacks may
        # insort into the active list but never rebind it (restructures
        # go through the _pending_resize flag, checked each iteration),
        # so the local alias stays valid.  The cursor is mirrored into
        # _apos before every dispatch, as step() does, so callbacks can
        # ask _due_now() and a raising callback can't lose it;
        # _event_count is settled in `finally` for the same reason.
        active = self._active
        apos = self._apos
        count = 0
        try:
            while True:
                if self._pending_resize:
                    self._resize()
                    active = self._active
                    apos = 0
                if apos >= len(active):
                    if not self._refill():
                        break
                    active = self._active
                    apos = 0
                    continue
                item = active[apos]
                when = item[0]
                if when > bound:
                    break
                apos += 1
                self._apos = apos
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
