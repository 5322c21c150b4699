"""JMeter-style closed-loop workload generator.

The paper's stress tests use JMeter with one thread per simulated
end-user: each user issues the next HTTP request *immediately* after
receiving the previous response, so the number of users equals the
workload concurrency exactly (Section 2.2).  Client machines are not
modelled (JMeter ran on its own node), so client-side operations carry
no CPU cost in the simulation.
"""

from __future__ import annotations

from ..drivers.base import AppServer
from ..messages import HttpResponse
from ..sim.kernel import Simulator
from ..sim.metrics import Metrics
from ..sim.network import QueueEndpoint
from ..sim.params import CostParams
from ..sim.resources import Queue
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
        """Open one connection per user and launch the user loops."""
        if self.started:
            raise RuntimeError("workload already started")
        self.started = True
        for user_id in range(self.concurrency):
            conn = self.server.accept_client()
            inbox = Queue(self.sim)
            conn.attach("a", QueueEndpoint(inbox))
            self.sim.process(self._user_loop(user_id, conn, inbox),
                             name=f"{self.name}-user-{user_id}")

    def _user_loop(self, user_id: int, conn, inbox: Queue):
        # Stagger the very first request of each user by a tiny random
        # offset so the initial burst does not arrive at one instant.
        yield self.sim.timeout(self._rng.random() * 1.0e-3)
        while True:
            request = self.profile.make_request(self._rng)
            tracer = self.sim.tracer
            if tracer is not None and tracer.sample():
                request.trace = tracer.begin(request.klass, self.sim.now)
            request.sent_at = self.sim.now
            # Client machines are unmodelled: a thread-less send never
            # yields, so skip the generator frame and transmit directly.
            conn.transmit(request, request.wire_size, "b")
            response = yield inbox.get()
            if not isinstance(response, HttpResponse):
                raise TypeError(f"client received non-response: {response!r}")
            self._record(request, response)


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
