"""RUBBoS-style open-loop (Poisson) workload generator.

The paper's realistic-traffic experiments use the RUBBoS generator:
the request rate follows a Poisson distribution with the mean
determined by the number of emulated end-users (Section 6.1).  We model
each user as think-time-driven — after receiving a response the user
waits an exponentially distributed think time before the next request —
which yields Poisson aggregate arrivals while retaining the per-user
closed feedback RUBBoS has.

A user costs nothing until it first arrives.  :meth:`PoissonWorkload.start`
accepts every connection and draws every first-arrival offset up front,
in user order, then walks the arrivals sorted by ``(offset, user_id)``
with one pending :meth:`~repro.sim.kernel.Simulator.call_at` entry: each
step builds the next user's inbox and starts its loop.  Users due after
the run ends are never built.
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
from .closed_loop import ResponseRecorder
from .profiles import WorkloadProfile

__all__ = ["PoissonWorkload"]


class PoissonWorkload:
    """*users* emulated browsers with exponential think times."""

    def __init__(self, sim: Simulator, metrics: Metrics, params: CostParams,
                 server: AppServer, profile: WorkloadProfile,
                 users: int, think_time_mean: float,
                 rng_streams: RngStreams, name: str = "rubbos") -> None:
        if users < 1:
            raise ValueError("users must be >= 1")
        if think_time_mean <= 0:
            raise ValueError("think time must be positive")
        self.sim = sim
        self.metrics = metrics
        self.params = params
        self.server = server
        self.profile = profile
        self.users = users
        self.think_time_mean = think_time_mean
        self.name = name
        self._rng = rng_streams.stream(f"{name}.requests")
        self._think_rng = rng_streams.stream(f"{name}.think")
        self.started = False
        self._record = ResponseRecorder(sim, metrics).record
        #: Users not yet arrived, as ``(offset, user_id, conn)`` sorted
        #: so the next one to arrive is last.
        self._arrivals: list = []

    @property
    def offered_rate(self) -> float:
        """Approximate aggregate request rate (requests/second) when
        response times are small relative to think times."""
        return self.users / self.think_time_mean

    def start(self) -> None:
        if self.started:
            raise RuntimeError("workload already started")
        self.started = True
        # Accept stays eager and in user order: DoubleFace assigns
        # reactors round-robin by accept order, and the thread-based
        # server starts one thread per accepted connection at t=0.  The
        # first-arrival offsets desynchronise session starts across one
        # full think period.
        think_rng = self._think_rng
        arrivals = [(think_rng.random() * self.think_time_mean, user_id,
                     self.server.accept_client())
                    for user_id in range(self.users)]
        # user_id is unique, so equal offsets launch in user order and
        # connections are never compared.
        arrivals.sort(reverse=True)
        self._arrivals = arrivals
        self.sim.call_at(arrivals[-1][0], self._arrive)

    def _arrive(self, _arg) -> None:
        """Build the next user, start its loop and book the arrival
        after it, at the exact drawn offset."""
        arrivals = self._arrivals
        _offset, user_id, conn = arrivals.pop()
        inbox = Queue(self.sim)
        conn.attach("a", QueueEndpoint(inbox))
        self.sim.process(self._user_loop(conn, inbox),
                         name=f"{self.name}-user-{user_id}")
        if arrivals:
            self.sim.call_at(arrivals[-1][0], self._arrive)

    def _user_loop(self, conn, inbox: Queue):
        while True:
            request = self.profile.make_request(self._rng)
            tracer = self.sim.tracer
            if tracer is not None and tracer.sample():
                request.trace = tracer.begin(request.klass, self.sim.now)
            request.sent_at = self.sim.now
            # Thread-less send never yields: transmit directly.
            conn.transmit(request, request.wire_size, "b")
            response = yield inbox.get()
            if not isinstance(response, HttpResponse):
                raise TypeError(f"client received non-response: {response!r}")
            self._record(request, response)
            yield self.sim.timeout(
                self._think_rng.expovariate(1.0 / self.think_time_mean))
