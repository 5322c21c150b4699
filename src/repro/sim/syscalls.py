"""The selector syscall model: select()/epoll readiness monitoring.

The paper's Tables 2 and 3 are built from ``select()`` counts, CPU
share, and "events per select".  This module makes those observable:

- A :class:`Selector` owns a set of :class:`Channel` endpoints.
  Messages delivered to a channel are queued as readiness events.
- ``Selector.select(thread, timeout)`` charges the calling thread
  :attr:`CostParams.select_base_cost` plus a per-event cost (category
  ``select``), returns the drained batch, and records per-selector
  metrics — including *spurious* selects that return zero events, the
  waste mechanism behind the imbalanced-workload problem.
- ``Selector.post`` is the cross-thread wakeup path (Netty's
  ``eventLoop.execute`` + wakeup-fd write), charging
  :attr:`CostParams.selector_wakeup_cost` to the posting thread.

Type-2a (Netty) reactors poll with a finite timeout; AIO and
DoubleFaceAD selectors block indefinitely.  Both styles are expressed
through the ``timeout`` argument.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .cpu import Cpu
from .kernel import Event, Simulator
from .metrics import Metrics
from .params import CostParams
from .threads import SimThread
from ..trace import K_HANDOFF, K_SELECTOR_WAIT

__all__ = ["Channel", "Selector", "ReadyEvent"]

#: A readiness event handed to the reactor: (channel, message).
ReadyEvent = Tuple["Channel", Any]


class Channel:
    """A registered endpoint delivering readiness events to a selector.

    ``kind`` tags the traffic direction (``"upstream"``, ``"downstream"``,
    ``"task"``) and ``context`` carries whatever the owning driver needs
    to dispatch the event (a connection object, a request, ...).
    """

    __slots__ = ("selector", "kind", "context")

    def __init__(self, selector: "Selector", kind: str, context: Any = None) -> None:
        self.selector = selector
        self.kind = kind
        self.context = context

    def deliver(self, message: Any) -> None:
        """Called by the network (or a poster) when data arrives."""
        self.selector._enqueue(self, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.kind}>"


class Selector:
    """One select()/epoll instance, used by exactly one reactor thread."""

    __slots__ = ("sim", "cpu", "metrics", "params", "name", "_ready",
                 "_waiter", "_task_channel", "_wakeups", "_selects",
                 "_events", "_spurious", "_total_selects", "_total_events",
                 "_total_spurious")

    def __init__(self, sim: Simulator, cpu: Cpu, metrics: Metrics,
                 params: CostParams, name: str) -> None:
        self.sim = sim
        self.cpu = cpu
        self.metrics = metrics
        self.params = params
        self.name = name
        self._ready: Deque[ReadyEvent] = deque()
        self._waiter: Optional[Event] = None
        self._task_channel = Channel(self, "task")
        # Interned per-select counters: the select loop is the hottest
        # metrics producer in every reactor driver.
        self._wakeups = metrics.counter(f"selector.{name}.wakeups")
        self._selects = metrics.counter(f"selector.{name}.selects")
        self._events = metrics.counter(f"selector.{name}.events")
        self._spurious = metrics.counter(f"selector.{name}.spurious")
        self._total_selects = metrics.counter("selector.total_selects")
        self._total_events = metrics.counter("selector.total_events")
        self._total_spurious = metrics.counter("selector.total_spurious")

    # -- registration ------------------------------------------------------

    def open_channel(self, kind: str, context: Any = None) -> Channel:
        """Register a new channel on this selector."""
        return Channel(self, kind, context)

    # -- delivery ------------------------------------------------------------

    def _enqueue(self, channel: Channel, message: Any) -> None:
        tracer = self.sim.tracer
        if tracer is not None and tracer.trace_of(message) is not None:
            tracer.stamp_wait(message, self.sim.now)
        self._ready.append((channel, message))
        if self._waiter is not None and not self._waiter.triggered:
            self._waiter.succeed()
        self._waiter = None

    def post(self, thread: Optional[SimThread], message: Any):
        """Coroutine: cross-thread hand-off into this selector's loop.

        Charges the wakeup-fd write to *thread* (pass None to skip the
        charge, e.g. for harness-injected events).
        """
        self._wakeups.add()
        if thread is not None:
            yield self.cpu.execute(
                thread, self.params.selector_wakeup_cost, "syscall")
        self._enqueue(self._task_channel, message)

    @property
    def pending(self) -> int:
        """Readiness events queued but not yet collected."""
        return len(self._ready)

    # -- the syscall ------------------------------------------------------------

    def select(self, thread: SimThread, timeout: Optional[float] = None):
        """Coroutine: one select() call by *thread*.

        Returns the drained batch of ready events (possibly empty when a
        finite *timeout* expires first — a spurious select).
        """
        if not self._ready:
            waiter = Event(self.sim)
            self._waiter = waiter
            if timeout is None:
                yield waiter
            else:
                # Netty's loop does a selectNow() probe before blocking
                # in select(timeout): an extra kernel crossing per loop.
                self._selects.add()
                self._total_selects.add()
                yield self.cpu.execute(
                    thread, self.params.select_base_cost, "select")
                # (If data raced in during the probe, the waiter has
                # already been triggered and the wait below is instant.)
                # Race the poll timer against readiness with no race
                # event of its own: the timer succeeds the pending
                # waiter directly, and loses by lazy cancellation.
                timer = self.sim.timeout(timeout)
                timer.add_callback(waiter._succeed_from)
                yield waiter
                if not self._ready:
                    # Spurious wakeup: kernel crossing with nothing to show.
                    if self._waiter is waiter:
                        self._waiter = None
                    self._selects.add()
                    self._spurious.add()
                    self._total_selects.add()
                    self._total_spurious.add()
                    yield self.cpu.execute(
                        thread, self.params.select_base_cost, "select")
                    return []
                timer.cancel()
        if timeout is not None and (len(self._ready)
                                    > self.params.netty_select_max_batch):
            # Poll-loop reactors consume a bounded batch per cycle and
            # come straight back for the rest.
            limit = self.params.netty_select_max_batch
            batch: List[ReadyEvent] = [self._ready.popleft()
                                       for _ in range(limit)]
        else:
            batch = list(self._ready)
            self._ready.clear()
        tracer = self.sim.tracer
        if tracer is not None:
            now = self.sim.now
            for channel, message in batch:
                trace = tracer.trace_of(message)
                if trace is not None:
                    started = tracer.pop_wait(message)
                    if started is not None:
                        trace.add(
                            K_HANDOFF if channel.kind == "task"
                            else K_SELECTOR_WAIT,
                            started, now,
                            seq=getattr(message, "seq", -1),
                            attempt=getattr(message, "attempt", 0),
                            shard=getattr(message, "shard_id", -1),
                            replica=getattr(message, "replica", -1))
        n = len(batch)
        self._selects.add()
        self._events.add(n)
        self._total_selects.add()
        self._total_events.add(n)
        cost = self.params.select_base_cost + self.params.select_per_event_cost * n
        yield self.cpu.execute(thread, cost, "select")
        return batch

    # -- reporting helpers ---------------------------------------------------

    def stats(self) -> dict:
        """Windowed per-selector statistics (Table 2/3 rows)."""
        selects = self.metrics.count(f"selector.{self.name}.selects")
        events = self.metrics.count(f"selector.{self.name}.events")
        spurious = self.metrics.count(f"selector.{self.name}.spurious")
        return {
            "name": self.name,
            "selects": selects,
            "events": events,
            "spurious": spurious,
            "events_per_select": (events / selects) if selects else 0.0,
        }
