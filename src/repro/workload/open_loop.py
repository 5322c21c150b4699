"""RUBBoS-style open-loop (Poisson) workload generator.

The paper's realistic-traffic experiments use the RUBBoS generator:
the request rate follows a Poisson distribution with the mean
determined by the number of emulated end-users (Section 6.1).  We model
each user as think-time-driven — after receiving a response the user
waits an exponentially distributed think time before the next request —
which yields Poisson aggregate arrivals while retaining the per-user
closed feedback RUBBoS has.

A user costs nothing until it first arrives.  :meth:`PoissonWorkload.start`
draws every first-arrival offset up front, in user order, then walks the
arrivals sorted by ``(offset, user_id)`` with one pending
:meth:`~repro.sim.kernel.Simulator.call_at` entry: each step accepts the
next user's connection and sends its first request.  Users due after the
run ends are never built.  A user is a plain callback endpoint, not a
simulated process: each response is recorded and the next send booked
after an exponential think time, from inside its delivery.
"""

from __future__ import annotations

from ..drivers.base import AppServer
from ..messages import HttpResponse
from ..sim.kernel import Simulator
from ..sim.metrics import Metrics
from ..sim.params import CostParams
from ..sim.rng import RngStreams
from .closed_loop import ClientUser, ResponseRecorder
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
        #: Users not yet arrived, as ``(offset, user_id)`` sorted so the
        #: next one to arrive is last.
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
        # The first-arrival offsets desynchronise session starts across
        # one full think period.
        think_rng = self._think_rng
        arrivals = [(think_rng.random() * self.think_time_mean, user_id)
                    for user_id in range(self.users)]
        # user_id is unique, so equal offsets launch in user order.
        arrivals.sort(reverse=True)
        self._arrivals = arrivals
        self.sim.call_at(arrivals[-1][0], self._arrive)

    def _arrive(self, _arg) -> None:
        """Accept the next user's connection, send its first request and
        book the arrival after it, at the exact drawn offset."""
        arrivals = self._arrivals
        _offset, user_id = arrivals.pop()
        ClientUser(self, self.server.accept_client(user_id)).send()
        if arrivals:
            self.sim.call_at(arrivals[-1][0], self._arrive)

    def _respond(self, user: ClientUser, response: HttpResponse) -> None:
        self._record(user.request, response)
        self.sim.call_later(
            self._think_rng.expovariate(1.0 / self.think_time_mean),
            ClientUser.send, user)
