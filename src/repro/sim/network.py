"""Network links, connections, and endpoints.

The network model is first-order: a message sent on a connection is
delivered to the remote endpoint after ``latency + size/bandwidth``.
That is all the studied phenomena require — every effect in the paper is
on the application-server CPU, not in the network.

Endpoints abstract *how the receiver learns about the message*:

- :class:`ChannelEndpoint` feeds a reactor's :class:`~repro.sim.syscalls.Selector`
  (asynchronous servers).
- :class:`InboxEndpoint` feeds a blocking queue read by a dedicated
  thread (thread-based servers, the synchronous driver connection pool).

Nodes whose CPU is not modelled (datastore shards, workload clients)
implement :class:`Endpoint` themselves and act inside ``deliver``.
"""

from __future__ import annotations

from typing import Any, Optional

from .cpu import Cpu
from .kernel import Simulator
from .metrics import Metrics
from .params import CostParams
from .resources import Queue
from .syscalls import Channel
from .threads import SimThread
from ..trace import (FLAG_DROPPED, K_INBOX_WAIT, K_NET_REQUEST,
                     K_NET_RESPONSE)

__all__ = ["Endpoint", "ChannelEndpoint", "InboxEndpoint", "Connection"]


class Endpoint:
    """Where one side of a connection delivers inbound messages."""

    def deliver(self, message: Any) -> None:
        raise NotImplementedError


class ChannelEndpoint(Endpoint):
    """Delivers inbound messages as selector readiness events."""

    __slots__ = ("channel",)

    def __init__(self, channel: Channel) -> None:
        self.channel = channel

    def deliver(self, message: Any) -> None:
        self.channel.deliver(message)


class InboxEndpoint(Endpoint):
    """Delivers inbound messages to a blocking FIFO inbox.

    ``recv`` charges the reader the blocking-read syscall cost on
    completion, modelling ``read()`` returning with data.
    """

    __slots__ = ("sim", "cpu", "params", "metrics", "queue",
                 "_blocking_wakes")

    def __init__(self, sim: Simulator, cpu: Cpu, params: CostParams,
                 metrics: Optional[Metrics] = None) -> None:
        self.sim = sim
        self.cpu = cpu
        self.params = params
        self.metrics = metrics if metrics is not None else cpu.metrics
        self.queue = Queue(sim)
        self._blocking_wakes = self.metrics.counter("net.blocking_recv_wakes")

    def deliver(self, message: Any) -> None:
        tracer = self.sim.tracer
        if tracer is not None and tracer.trace_of(message) is not None:
            tracer.stamp_wait(message, self.sim.now)
        self.queue.put(message)

    def recv(self, thread: SimThread):
        """Coroutine: block until a message arrives; returns it.

        A read that actually blocked pays the park/unpark (futex) cost
        on wake-up — the "Locking (mutex)" overhead perf attributes to
        blocking sync drivers in the paper's Table 1.
        """
        get_event = self.queue.get()
        blocked = not get_event.triggered
        message = yield get_event
        tracer = self.sim.tracer
        if tracer is not None:
            trace = tracer.trace_of(message)
            if trace is not None:
                started = tracer.pop_wait(message)
                if started is not None:
                    trace.add(K_INBOX_WAIT, started, self.sim.now,
                              seq=getattr(message, "seq", -1),
                              attempt=getattr(message, "attempt", 0))
        if blocked:
            self._blocking_wakes.add()
            yield self.cpu.execute(thread, self.params.futex_cost, "lock")
        yield self.cpu.execute(thread, self.params.recv_syscall_cost, "syscall")
        return message


class Connection:
    """A bidirectional connection between two endpoints.

    Each direction is independent; delivery time is
    ``latency + size / bandwidth``.  ``send`` charges the sending thread
    one write-syscall of CPU (category ``syscall``) — the per-message
    kernel crossing the paper counts among driver overheads.
    """

    __slots__ = ("sim", "metrics", "params", "latency",
                 "endpoint_a", "endpoint_b", "faults",
                 "_messages", "_bytes")

    def __init__(self, sim: Simulator, metrics: Metrics, params: CostParams,
                 endpoint_a: Optional[Endpoint] = None,
                 endpoint_b: Optional[Endpoint] = None,
                 latency: Optional[float] = None,
                 faults: Optional[Any] = None) -> None:
        self.sim = sim
        self.metrics = metrics
        self.params = params
        self.latency = latency if latency is not None else params.net_latency
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        #: Optional :class:`~repro.faults.FaultSchedule`: links wired to
        #: a faulty cluster consult it for latency spikes and message
        #: loss (both directions).  None on healthy links.
        self.faults = faults
        # Interned per-message counters (shared handles across conns).
        self._messages = metrics.counter("net.messages")
        self._bytes = metrics.counter("net.bytes")

    def attach(self, side: str, endpoint: Endpoint) -> None:
        """Attach *endpoint* to side ``"a"`` or ``"b"``."""
        if side == "a":
            self.endpoint_a = endpoint
        elif side == "b":
            self.endpoint_b = endpoint
        else:
            raise ValueError(f"unknown connection side {side!r}")

    def send(self, thread: Optional[SimThread], message: Any, size: int,
             to_side: str):
        """Coroutine: send *message* of *size* bytes toward *to_side*.

        Pass ``thread=None`` to skip the sender CPU charge.
        """
        if thread is not None:
            yield thread.execute(self.params.send_syscall_cost, "syscall")
        self.transmit(message, size, to_side)

    def transmit(self, message: Any, size: int, to_side: str) -> None:
        """Put *message* on the wire with no sender CPU charge.

        This is the non-coroutine half of :meth:`send`.  Senders with no
        simulated thread to charge call it directly: shards and clients,
        whose CPU is not modelled, and the resilience policy's watchdog
        callbacks for retries and hedges.
        """
        target = self.endpoint_b if to_side == "b" else self.endpoint_a
        if target is None:
            raise RuntimeError(f"connection side {to_side!r} not attached")
        self._messages.add()
        self._bytes.add(size)
        if to_side == "b":
            # Request-direction wire stamp (HttpRequest / Query): the
            # ewma replica policy reads it back off the echoed response.
            # Foreign message types (harness probes) simply go unstamped.
            try:
                message.sent_at = self.sim.now
            except AttributeError:
                pass
        delay = self.latency + self.params.transfer_time(size)
        tracer = self.sim.tracer
        if self.faults is not None:
            if self.faults.drop_message():
                self.metrics.add("faults.dropped_messages")
                if tracer is not None:
                    trace = tracer.trace_of(message)
                    if trace is not None:
                        now = self.sim.now
                        trace.add(
                            K_NET_REQUEST if to_side == "b"
                            else K_NET_RESPONSE,
                            now, now,
                            seq=getattr(message, "seq", -1),
                            attempt=getattr(message, "attempt", 0),
                            shard=getattr(message, "shard_id", -1),
                            replica=getattr(message, "replica", -1),
                            flags=FLAG_DROPPED)
                return
            delay += self.faults.extra_latency(self.sim.now)
        if tracer is not None:
            trace = tracer.trace_of(message)
            if trace is not None:
                now = self.sim.now
                trace.add(
                    K_NET_REQUEST if to_side == "b" else K_NET_RESPONSE,
                    now, now + delay,
                    seq=getattr(message, "seq", -1),
                    attempt=getattr(message, "attempt", 0),
                    shard=getattr(message, "shard_id", -1),
                    replica=getattr(message, "replica", -1),
                    flags=0)
        # Bare-callback entry: no Timeout/closure allocated per message.
        self.sim.call_later(delay, target.deliver, message)
