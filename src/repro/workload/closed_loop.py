"""JMeter-style closed-loop workload generator.

The paper's stress tests use JMeter with one thread per simulated
end-user: each user issues the next HTTP request *immediately* after
receiving the previous response, so the number of users equals the
workload concurrency exactly (Section 2.2).  Client machines are not
modelled (JMeter ran on its own node), so client-side operations carry
no CPU cost in the simulation, and a user is a plain callback endpoint
rather than a simulated process: each response is recorded and the next
request sent from inside its delivery.
"""

from __future__ import annotations

from typing import Any, Optional

from ..drivers.base import AppServer
from ..messages import HttpRequest, HttpResponse
from ..sim.kernel import Simulator
from ..sim.metrics import Metrics
from ..sim.network import Connection, Endpoint
from ..sim.params import CostParams
from ..sim.rng import RngStreams
from .profiles import WorkloadProfile

__all__ = ["ClosedLoopWorkload", "ResponseRecorder"]


class ClosedLoopWorkload:
    """*concurrency* users in lock-step request/response loops."""

    def __init__(self, sim: Simulator, metrics: Metrics, params: CostParams,
                 server: AppServer, profile: WorkloadProfile,
                 concurrency: int, rng_streams: RngStreams,
                 name: str = "jmeter") -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.sim = sim
        self.metrics = metrics
        self.params = params
        self.server = server
        self.profile = profile
        self.concurrency = concurrency
        self.name = name
        self._rng = rng_streams.stream(f"{name}.requests")
        self.started = False
        self._record = ResponseRecorder(sim, metrics).record

    def start(self) -> None:
        """Open one connection per user and book each user's first
        request."""
        if self.started:
            raise RuntimeError("workload already started")
        self.started = True
        rng = self._rng
        for user_id in range(self.concurrency):
            user = ClientUser(self, self.server.accept_client(user_id))
            # Stagger the very first request of each user by a tiny
            # random offset so the initial burst does not arrive at one
            # instant.
            self.sim.call_later(rng.random() * 1.0e-3, ClientUser.send, user)

    def _respond(self, user: ClientUser, response: HttpResponse) -> None:
        self._record(user.request, response)
        user.send()


class ClientUser(Endpoint):
    """One client user, attached to side ``a`` of its connection.

    Used by both workload generators.  Every response goes to the
    workload's ``_respond(user, response)``, which records it and sends
    or books the user's next request.
    """

    __slots__ = ("workload", "conn", "request")

    def __init__(self, workload: Any, conn: Connection) -> None:
        self.workload = workload
        self.conn = conn
        #: The request in flight (None before the first send).
        self.request: Optional[HttpRequest] = None
        conn.attach("a", self)

    def deliver(self, message: Any) -> None:
        if not isinstance(message, HttpResponse):
            raise TypeError(f"client received non-response: {message!r}")
        self.workload._respond(self, message)

    def send(self) -> None:
        """Draw the next request from the workload's request stream and
        put it on the wire (client machines are unmodelled: no CPU)."""
        workload = self.workload
        sim = workload.sim
        request = workload.profile.make_request(workload._rng)
        tracer = sim.tracer
        if tracer is not None and tracer.sample():
            request.trace = tracer.begin(request.klass, sim.now)
        request.sent_at = sim.now
        self.request = request
        self.conn.transmit(request, request.wire_size, "b")


class ResponseRecorder:
    """Records each client response, for both workload generators.

    Finishes the request's trace and feeds the ``client.completed`` and
    ``client.rt`` instruments, overall and per request class.  The
    per-class instruments are interned on first use, so their creation
    order (and with it the per-class report order) follows the order in
    which classes first complete.
    """

    __slots__ = ("sim", "metrics", "_completed", "_rt",
                 "_completed_by_klass", "_rt_by_klass")

    def __init__(self, sim: Simulator, metrics: Metrics) -> None:
        self.sim = sim
        self.metrics = metrics
        self._completed = metrics.counter("client.completed")
        self._rt = metrics.latency("client.rt")
        self._completed_by_klass: dict = {}
        self._rt_by_klass: dict = {}

    def record(self, request, response: HttpResponse) -> None:
        now = self.sim.now
        rt = now - request.sent_at
        klass = request.klass
        if response.trace is not None and self.sim.tracer is not None:
            # Exactly the recorded response-time float, so the trace's
            # category breakdown sums to what the histograms saw.
            self.sim.tracer.finish(response.trace, rt)
        self._completed.add()
        by_klass = self._completed_by_klass.get(klass)
        if by_klass is None:
            by_klass = self.metrics.counter(f"client.completed.{klass}")
            self._completed_by_klass[klass] = by_klass
        by_klass.add()
        self._rt.record(now, rt)
        rt_rec = self._rt_by_klass.get(klass)
        if rt_rec is None:
            rt_rec = self.metrics.latency(f"client.rt.{klass}")
            self._rt_by_klass[klass] = rt_rec
        rt_rec.record(now, rt)
