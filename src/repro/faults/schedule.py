"""Seed-driven fault schedules for the simulated datastore tier.

A :class:`FaultSchedule` is built once per run from the run's
:class:`~repro.sim.rng.RngStreams` and queried from three hook points:

- :meth:`FaultSchedule.service_multiplier` /
  :meth:`FaultSchedule.is_down` — by each
  :class:`~repro.datastore.server.ShardServer` serve loop;
- :meth:`FaultSchedule.extra_latency` /
  :meth:`FaultSchedule.drop_message` — by
  :meth:`repro.sim.network.Connection.transmit` on app↔shard links.

Determinism: every on/off timeline is drawn interval-by-interval from
its own named stream (``faults.slow.<shard>``, ``faults.crash.<shard>``,
``faults.rack.<rack>``, ``faults.spikes``), so interval *i* is always
the *i*-th draw from that stream — the timeline is a pure function of
``(seed, stream name)`` and query times never influence it.  Which
shards are targeted comes from ``faults.targets``; which racks from
``faults.rack_targets``.  Message-loss draws come from ``faults.loss``
in send order, which the single-threaded simulator makes deterministic.
Because named streams are independent, an inactive ``FaultConfig``
(the default ``faults=None``) leaves every existing stream's draw
sequence untouched — and enabling one fault family never shifts
another family's timeline.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..datastore.sharding import rack_of
from ..sim.rng import RngStreams

__all__ = ["FaultConfig", "FaultSchedule"]


@dataclass(frozen=True)
class FaultConfig:
    """Which faults to inject, and how hard.

    All durations are simulated seconds.  Every fault family is off by
    default; a default-constructed config injects nothing.  Shard
    slowdowns and crashes hit only replica 0 of each shard, so failover
    targets stay healthy; rack slowdowns hit every replica in the rack.
    """

    #: Number of shards subject to slowdown windows.
    slow_shards: int = 0
    #: Service-time multiplier inside a slowdown window.
    slow_factor: float = 20.0
    #: Mean slowdown-window length (exponentially distributed).
    slow_mean_on: float = 0.25
    #: Mean healthy gap between slowdown windows.
    slow_mean_off: float = 0.75

    #: Number of shards subject to crash/recovery cycling.
    crash_shards: int = 0
    #: Mean up-time between crashes (MTBF).
    crash_mtbf: float = 2.0
    #: Mean down-time per crash (MTTR).  A down shard silently drops
    #: arriving queries, like a dead TCP peer.
    crash_mttr: float = 0.25

    #: Network latency spikes per second (0 disables spikes).
    spike_rate: float = 0.0
    #: Extra one-way latency while a spike is active.
    spike_extra: float = 0.0
    #: Mean spike duration.
    spike_duration: float = 0.01

    #: Number of racks subject to correlated rack-wide slowdowns.  A
    #: rack slowdown window degrades *every* replica placed in the rack
    #: at once (see :func:`repro.datastore.sharding.rack_of`), modelling
    #: a saturated ToR switch or a shared power/cooling event — the
    #: correlated-failure case where naive failover can land on an
    #: equally slow sibling.
    rack_slow_racks: int = 0
    #: Service-time multiplier inside a rack slowdown window.
    rack_slow_factor: float = 20.0
    #: Mean rack slowdown-window length (exponentially distributed).
    rack_slow_mean_on: float = 0.25
    #: Mean healthy gap between rack slowdown windows.
    rack_slow_mean_off: float = 0.75

    #: Probability that any single app<->shard message is lost.
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.slow_shards < 0 or self.crash_shards < 0:
            raise ValueError("fault shard counts must be >= 0")
        # Written as not (x >= bound) so NaN fails too.
        if not (self.slow_factor >= 1.0):
            raise ValueError("slow_factor must be >= 1")
        if self.slow_shards and not (self.slow_mean_on > 0
                                     and self.slow_mean_off > 0):
            raise ValueError("slowdown window means must be positive")
        if self.crash_shards and not (self.crash_mtbf > 0
                                      and self.crash_mttr > 0):
            raise ValueError("crash MTBF/MTTR must be positive")
        if not (self.spike_rate >= 0 and self.spike_extra >= 0):
            raise ValueError("spike rate/extra must be >= 0")
        if self.spike_rate > 0 and not (self.spike_duration > 0):
            raise ValueError("spike_duration must be positive")
        if self.rack_slow_racks < 0:
            raise ValueError("rack_slow_racks must be >= 0")
        if not (self.rack_slow_factor >= 1.0):
            raise ValueError("rack_slow_factor must be >= 1")
        if self.rack_slow_racks and not (self.rack_slow_mean_on > 0
                                         and self.rack_slow_mean_off > 0):
            raise ValueError("rack slowdown window means must be positive")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")

    @property
    def active(self) -> bool:
        """True when at least one fault family is enabled."""
        return bool(self.slow_shards or self.crash_shards
                    or self.rack_slow_racks
                    or (self.spike_rate > 0 and self.spike_extra > 0)
                    or self.loss_prob > 0)


class _WindowTrack:
    """An alternating off/on timeline with exponential interval lengths.

    ``active(now)`` must be queried at nondecreasing times (the
    simulator clock is monotone), letting the cursor advance lazily in
    O(1) amortised per query.
    """

    __slots__ = ("_rng", "_mean_on", "_mean_off", "_on", "_until",
                 "_transitions")

    def __init__(self, rng: random.Random, mean_on: float,
                 mean_off: float) -> None:
        self._rng = rng
        self._mean_on = mean_on
        self._mean_off = mean_off
        self._on = False
        # Start healthy for a random fraction of a gap, so window phases
        # differ across targeted shards.
        self._until = rng.expovariate(1.0 / mean_off)
        #: Realised toggle times, appended as the cursor advances past
        #: them.  Transition *i* flips the state for the (i+1)-th time
        #: (initial state is off), so parity answers past-time queries
        #: without re-drawing anything — the observability layer reads
        #: these to reconstruct fault windows after the fact.
        self._transitions: List[float] = []

    def active(self, now: float) -> bool:
        while now >= self._until:
            self._transitions.append(self._until)
            self._on = not self._on
            mean = self._mean_on if self._on else self._mean_off
            self._until += self._rng.expovariate(1.0 / mean)
        return self._on

    def state_at(self, t: float) -> bool:
        """State at a *past* time ``t`` (must satisfy ``t < horizon``,
        i.e. :meth:`active` was already queried at or beyond *t*): the
        parity of realised transitions up to *t*."""
        return bisect_right(self._transitions, t) % 2 == 1

    def windows(self, end: float) -> List[tuple]:
        """Realised on-windows, clamped to ``[0, end]``.

        Pairs consecutive transitions (off→on, on→off); a window still
        open at the horizon closes at *end*.  Call :meth:`active`
        (or :meth:`FaultSchedule.advance`) at *end* first so the
        timeline is realised that far.
        """
        transitions = self._transitions
        windows = []
        for i in range(0, len(transitions), 2):
            start = transitions[i]
            if start >= end:
                break
            close = transitions[i + 1] if i + 1 < len(transitions) else end
            windows.append((start, min(close, end)))
        return windows


class FaultSchedule:
    """The realised fault timeline for one run."""

    def __init__(self, config: FaultConfig, rng_streams: RngStreams,
                 n_shards: int, racks: int = 1) -> None:
        if racks < 1:
            raise ValueError("need at least one rack")
        self.config = config
        self.n_shards = n_shards
        self.racks = racks
        pick = rng_streams.stream("faults.targets")
        self.slow_ids: List[int] = sorted(pick.sample(
            range(n_shards), min(config.slow_shards, n_shards)))
        self.crash_ids: List[int] = sorted(pick.sample(
            range(n_shards), min(config.crash_shards, n_shards)))
        self._slow: Dict[int, _WindowTrack] = {
            shard_id: _WindowTrack(
                rng_streams.stream(f"faults.slow.{shard_id}"),
                config.slow_mean_on, config.slow_mean_off)
            for shard_id in self.slow_ids}
        self._crash: Dict[int, _WindowTrack] = {
            shard_id: _WindowTrack(
                rng_streams.stream(f"faults.crash.{shard_id}"),
                config.crash_mttr, config.crash_mtbf)
            for shard_id in self.crash_ids}
        # Rack targets come from their own stream so enabling rack
        # faults never shifts which shards the slow/crash families hit.
        rack_pick = rng_streams.stream("faults.rack_targets")
        self.rack_ids: List[int] = sorted(rack_pick.sample(
            range(racks), min(config.rack_slow_racks, racks)))
        self._rack: Dict[int, _WindowTrack] = {
            rack_id: _WindowTrack(
                rng_streams.stream(f"faults.rack.{rack_id}"),
                config.rack_slow_mean_on, config.rack_slow_mean_off)
            for rack_id in self.rack_ids}
        self._spike: Optional[_WindowTrack] = None
        if config.spike_rate > 0 and config.spike_extra > 0:
            self._spike = _WindowTrack(
                rng_streams.stream("faults.spikes"),
                config.spike_duration, 1.0 / config.spike_rate)
        self._loss_rng: Optional[random.Random] = (
            rng_streams.stream("faults.loss")
            if config.loss_prob > 0 else None)

    # -- shard-side hooks ---------------------------------------------------

    def service_multiplier(self, shard_id: int, replica: int,
                           now: float) -> float:
        """Service-time multiplier for a query served at *now*.

        Combines the per-shard slowdown family (which hits only replica
        0, so failover targets stay healthy) with the rack family (which
        by definition hits every replica placed in the rack); overlapping
        windows take the worse of the two factors.
        """
        multiplier = 1.0
        if replica == 0:
            track = self._slow.get(shard_id)
            if track is not None and track.active(now):
                multiplier = self.config.slow_factor
        if self._rack and self.rack_active(shard_id, replica, now):
            multiplier = max(multiplier, self.config.rack_slow_factor)
        return multiplier

    def rack_active(self, shard_id: int, replica: int, now: float) -> bool:
        """True while the rack holding (*shard_id*, *replica*) is inside
        a rack-wide slowdown window."""
        if not self._rack:
            return False
        track = self._rack.get(rack_of(shard_id, replica, self.racks))
        return track is not None and track.active(now)

    def is_down(self, shard_id: int, replica: int, now: float) -> bool:
        """True while the shard replica is crashed (queries are dropped).

        Crashes hit only replica 0, so failover targets stay up.
        """
        if replica != 0:
            return False
        track = self._crash.get(shard_id)
        return track is not None and track.active(now)

    # -- network-side hooks -------------------------------------------------

    def extra_latency(self, now: float) -> float:
        """Added one-way latency at *now* (latency spike windows)."""
        if self._spike is not None and self._spike.active(now):
            return self.config.spike_extra
        return 0.0

    def drop_message(self) -> bool:
        """Decide (one Bernoulli draw) whether to lose this message."""
        return (self._loss_rng is not None
                and self._loss_rng.random() < self.config.loss_prob)

    # -- observability hooks ------------------------------------------------

    def _window_tracks(self):
        """(family, tag, track) triples for every windowed timeline."""
        for shard_id, track in self._slow.items():
            yield "slow", f"shard{shard_id}", track
        for shard_id, track in self._crash.items():
            yield "crash", f"shard{shard_id}", track
        for rack_id, track in self._rack.items():
            yield "rack", f"rack{rack_id}", track
        if self._spike is not None:
            yield "spike", "net", self._spike

    def advance(self, now: float) -> None:
        """Realise every windowed timeline up to *now*.

        Purely observational: each track draws interval lengths from
        its own private named stream, so advancing a timeline early
        never changes what any later ``active(now)`` query (or any
        other stream) returns.  Called by the tracing/telemetry layer
        before :meth:`families_at` / :meth:`realized_windows`.
        """
        for _family, _tag, track in self._window_tracks():
            track.active(now)

    def families_at(self, t: float) -> Tuple[str, ...]:
        """Fault families with a window active at past time *t*
        (``crash``/``rack``/``slow``/``spike``, sorted).  Call
        :meth:`advance` to at least *t* first."""
        families = []
        for family in ("crash", "rack", "slow", "spike"):
            for fam, _tag, track in self._window_tracks():
                if fam == family and track.state_at(t):
                    families.append(family)
                    break
        return tuple(families)

    def realized_windows(self, end: float
                         ) -> List[Tuple[str, float, float]]:
        """Every realised fault window as ``(name, start, close)``,
        clamped to ``[0, end]`` — e.g. ``("fault:slow:shard3", ...)``.
        Calls :meth:`advance` itself, so the timelines are realised
        through *end* on return."""
        self.advance(end)
        windows = []
        for family, tag, track in self._window_tracks():
            for start, close in track.windows(end):
                windows.append((f"fault:{family}:{tag}", start, close))
        return windows
