"""Waitable synchronisation primitives built on the kernel.

These are the *semantic* primitives used to structure simulated
programs; they carry no CPU cost by themselves.  Cost-bearing versions
(mutexes that account lock-contention CPU, selector syscalls, ...) live
in :mod:`repro.sim.threads` and :mod:`repro.sim.syscalls` and are built
from these.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .kernel import Event, Simulator

__all__ = ["Queue", "Semaphore", "QueueTimeout", "queue_get_with_timeout"]


class QueueTimeout(Exception):
    """Raised by :func:`queue_get_with_timeout` when the wait expires."""


class Queue:
    """An unbounded FIFO queue with event-based blocking ``get``.

    ``put`` never blocks.  ``get`` returns an :class:`Event` that
    triggers with the next item.  ``wake_order`` selects which blocked
    getter a ``put`` hands the item to: ``"fifo"`` (fair, default) or
    ``"lifo"`` (unfair — most recently blocked getter first, the
    semantics of ``SynchronousQueue`` hand-off in JVM cached thread
    pools, which keeps hot worker threads busy and lets cold ones time
    out).
    """

    __slots__ = ("sim", "_items", "_getters", "wake_order")

    def __init__(self, sim: Simulator, wake_order: str = "fifo") -> None:
        if wake_order not in ("fifo", "lifo"):
            raise ValueError(f"unknown wake order {wake_order!r}")
        self.sim = sim
        self.wake_order = wake_order
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting(self) -> int:
        """Number of getters currently blocked."""
        return len(self._getters)

    def _handoff(self, item: Any) -> bool:
        """Hand *item* to the first live blocked getter; False if none.

        Skips getters that were abandoned (e.g. lost a timeout race and
        were triggered by the raced timeout path).
        """
        getters = self._getters
        pop = getters.pop if self.wake_order == "lifo" else getters.popleft
        while getters:
            getter = pop()
            if not getter.triggered:
                getter.succeed(item)
                return True
        return False

    def put(self, item: Any) -> None:
        """Append *item*; wakes a blocked getter if any."""
        if not self._getters or not self._handoff(item):
            self._items.append(item)

    def put_front(self, item: Any) -> None:
        """Prepend *item* (used by schedulers re-queueing work)."""
        if not self._getters or not self._handoff(item):
            self._items.appendleft(item)

    def get(self) -> Event:
        """Return an event triggering with the next available item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def drain(self) -> list:
        """Remove and return all currently queued items."""
        items = list(self._items)
        self._items.clear()
        return items


#: Sentinel a racing idle timer injects into an abandoned getter.
_TIMED_OUT = object()


def queue_get_with_timeout(sim: Simulator, queue: Queue, timeout: float):
    """Coroutine helper: get from *queue* or raise :class:`QueueTimeout`.

    Use with ``yield from``.  A timed-out get leaves the queue in a
    consistent state: a later ``put`` skips the abandoned getter.

    The race needs no race event of its own: the idle timer succeeds
    the pending getter directly with a sentinel, and when the item wins
    instead the timer is lazily cancelled (idle timers are far-future
    entries; cancelling beats letting them fire).
    """
    get_event = queue.get()
    if get_event.triggered:
        value = yield get_event
        return value
    timer = sim.timeout(timeout, value=_TIMED_OUT)
    timer.add_callback(get_event._succeed_from)
    value = yield get_event
    if value is _TIMED_OUT:
        # The getter is now triggered, so a later put() skips it; an item
        # racing in at this same instant stays queued because put()
        # checks `triggered` before handing over.
        raise QueueTimeout()
    timer.cancel()
    return value


class Semaphore:
    """A counting semaphore with FIFO waiters."""

    __slots__ = ("sim", "_count", "_waiters")

    def __init__(self, sim: Simulator, count: int = 1) -> None:
        if count < 0:
            raise ValueError("semaphore count must be >= 0")
        self.sim = sim
        self._count = count
        self._waiters: Deque[Event] = deque()

    @property
    def count(self) -> int:
        """Currently available permits."""
        return self._count

    @property
    def waiting(self) -> int:
        """Number of blocked acquirers."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that triggers once a permit is granted."""
        event = Event(self.sim)
        if self._count > 0:
            self._count -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._count > 0:
            self._count -= 1
            return True
        return False

    def release(self) -> None:
        """Release one permit, waking the oldest waiter if any."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.succeed()
                return
        self._count += 1
