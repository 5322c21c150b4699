"""Span records, interned span kinds, and the :class:`Tracer`.

Design constraints (see DESIGN.md "Tracing & critical-path
attribution"):

- **Deterministic.** The only randomness is the head-sampling draw,
  taken from a dedicated named RNG stream in workload issue order.
  Nothing a hook records feeds back into simulation behaviour, so a
  traced run's *measured* results are float-identical to the same run
  untraced, and tracing off makes no draws at all.
- **Allocation-light.** Span kinds are interned handles in the style
  of ``Metrics.counter`` (PR 6): every hook site uses a pre-resolved
  integer index, and a span is one 9-tuple appended to the trace's
  list.  Unsampled requests cost one attribute test per hook.
- **Self-describing.** A span is ``(kind, start, end, seq, attempt,
  work, shard, replica, flags)``.  ``seq`` is the sub-query sequence
  number (``-1`` for request-level spans such as parse/assemble and
  the client-side network legs), ``attempt`` the retry/hedge attempt
  tag (``HEDGE_ATTEMPT`` = -1 marks hedges), ``work`` the CPU amount
  actually charged inside a CPU span (so queueing = elapsed - work),
  ``shard``/``replica`` the datastore target where known.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SpanKind", "Span", "Trace", "Tracer", "KIND_NAMES",
           "K_ROOT", "K_PARSE", "K_SEND", "K_NET_REQUEST",
           "K_NET_RESPONSE", "K_SERVER_QUEUE", "K_SERVICE",
           "K_SELECTOR_WAIT", "K_HANDOFF", "K_INBOX_WAIT", "K_PROCESS",
           "K_ASSEMBLE", "K_RETRY", "K_HEDGE", "K_FAILED",
           "FLAG_DROPPED", "FLAG_SYNTHESIZED"]

#: Canonical span-kind names, in index order.  Hooks use the module's
#: ``K_*`` integer constants; the :class:`Tracer` pre-interns all of
#: them so ``tracer.kinds[K_SERVICE].name == "service"`` always holds
#: and exporters never need a lookup table of their own.
KIND_NAMES = (
    "root",            # whole request: workload issue -> response receipt
    "parse",           # app CPU: HTTP request parse
    "send",            # per-subquery send syscall on the app thread
    "net_request",     # wire transit toward the server (query / request)
    "net_response",    # wire transit toward the client (response)
    "server_queue",    # datastore server: arrival -> service start
    "service",         # datastore server: service time
    "selector_wait",   # message queued in a reactor selector
    "handoff",         # completed state crossing threads (task channel)
    "inbox_wait",      # message queued in a blocking-recv inbox
    "process",         # app CPU: per-response decode/processing
    "assemble",        # app CPU: final result assembly
    "retry",           # point event: resilience retry fired
    "hedge",           # point event: resilience hedge fired
    "failed",          # point event: subquery exhausted -> synthesized
)

(K_ROOT, K_PARSE, K_SEND, K_NET_REQUEST, K_NET_RESPONSE, K_SERVER_QUEUE,
 K_SERVICE, K_SELECTOR_WAIT, K_HANDOFF, K_INBOX_WAIT, K_PROCESS,
 K_ASSEMBLE, K_RETRY, K_HEDGE, K_FAILED) = range(len(KIND_NAMES))

#: Span flag bits.
FLAG_DROPPED = 1       # the message was dropped in transit (fault)
FLAG_SYNTHESIZED = 2   # synthesized failed=True response (no real wire)

#: Slowest exemplar traces kept per request class.
EXEMPLARS = 3

#: A span record, as stored on a :class:`Trace` — a plain tuple, kept
#: as a named alias for annotation purposes only.
Span = Tuple[float, float, float, float, float, float, float, float, float]


class SpanKind:
    """An interned span kind: a name bound to a stable index."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanKind({self.name!r}, {self.index})"


class Trace:
    """The span tree of one sampled request (stored flat; the tree
    structure is implied by seq/attempt tags and containment)."""

    __slots__ = ("request_id", "klass", "start", "rt", "spans",
                 "crit_seq", "crit_attempt", "crit_shard", "crit_replica",
                 "attempts", "breakdown")

    def __init__(self, request_id: int, klass: str, start: float) -> None:
        self.request_id = request_id
        self.klass = klass
        self.start = start
        self.rt = -1.0
        self.spans: List[Span] = []
        # The critical sub-query: the (seq, attempt) whose response
        # completed the fanout join, stamped by RequestState.absorb.
        self.crit_seq = -1
        self.crit_attempt = 0
        self.crit_shard = -1
        self.crit_replica = -1
        self.attempts = 0
        self.breakdown: Optional[Dict[str, float]] = None

    def add(self, kind: int, start: float, end: float, seq: int = -1,
            attempt: int = 0, work: float = 0.0, shard: int = -1,
            replica: int = -1, flags: int = 0) -> None:
        self.spans.append((kind, start, end, seq, attempt, work, shard,
                           replica, flags))

    def point(self, kind: int, at: float, seq: int = -1, attempt: int = 0,
              shard: int = -1, replica: int = -1, flags: int = 0) -> None:
        """A zero-duration marker (retry / hedge / failed events)."""
        self.spans.append((kind, at, at, seq, attempt, 0.0, shard,
                           replica, flags))

    def note_win(self, response: Any) -> None:
        """Stamp the critical sub-query from the response that
        completed the fanout join."""
        self.crit_seq = response.seq
        self.crit_attempt = response.attempt
        self.crit_shard = response.shard_id
        self.crit_replica = getattr(response, "replica", -1)


class _ClassAgg:
    """Per-request-class aggregates: counts, category sums, and the
    :data:`EXEMPLARS` slowest exemplar traces (a min-heap on rt)."""

    __slots__ = ("count", "rt_sum", "sums", "heap")

    def __init__(self, categories: Tuple[str, ...]) -> None:
        self.count = 0
        self.rt_sum = 0.0
        self.sums = {cat: 0.0 for cat in categories}
        self.heap: List[Tuple[float, int, Trace]] = []


class Tracer:
    """Seed-deterministic head-sampled request tracer.

    Owned by the :class:`Simulator` (``sim.tracer``); ``None`` when
    tracing is off, so every hook is one attribute test on the cold
    path.  ``sample()`` draws once per issued request from the stream
    the runner hands in (``trace.sample``), in workload issue order —
    a pure function of the seed.
    """

    def __init__(self, rng, sample_rate: float = 0.01) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self._rng = rng
        self.sample_rate = sample_rate
        self.kinds: List[SpanKind] = []
        self._kind_index: Dict[str, SpanKind] = {}
        for name in KIND_NAMES:
            self.kind(name)
        # Message -> stamp map for open wait intervals.  Keyed by id():
        # entries are written and popped, never iterated, so CPython id
        # values cannot influence any simulation result.
        self._wait_stamp: Dict[int, float] = {}
        self.window_start = 0.0
        self.sampled = 0
        self._next_request_id = 0
        self._finish_seq = 0
        self._classes: Dict[str, _ClassAgg] = {}
        #: Optional :class:`repro.trace.flame.FlameAccumulator`: when
        #: set, ``finish`` folds every sampled trace's span tree into
        #: the cross-request flame tables (the tracer itself only keeps
        #: top-K exemplars, so the fold must stream here).
        self.flame = None
        #: Optional ``start_time -> phase name`` hook (set by the
        #: runner): labels each folded trace with the workload phase
        #: (warmup/measure + active fault families) it started in.
        self.phase_of = None

    # -- interning --------------------------------------------------------

    def kind(self, name: str) -> SpanKind:
        """Return (interning if needed) the span kind called *name* —
        the ``Metrics.counter`` handle pattern."""
        handle = self._kind_index.get(name)
        if handle is None:
            handle = SpanKind(name, len(self.kinds))
            self.kinds.append(handle)
            self._kind_index[name] = handle
        return handle

    # -- sampling & lifecycle ---------------------------------------------

    def sample(self) -> bool:
        """One head-sampling draw (workload issue order)."""
        return self._rng.random() < self.sample_rate

    def begin(self, klass: str, now: float) -> Trace:
        trace = Trace(self._next_request_id, klass, now)
        self._next_request_id += 1
        return trace

    def finish(self, trace: Trace, rt: float) -> None:
        """Close a trace with its *measured* end-to-end latency (the
        exact float the workload recorder stores), attribute it, and
        fold it into the per-class aggregates."""
        from .critical_path import CATEGORIES, attribute

        trace.rt = rt
        trace.add(K_ROOT, trace.start, trace.start + rt)
        trace.breakdown = attribute(trace)
        self.sampled += 1
        agg = self._classes.get(trace.klass)
        if agg is None:
            agg = self._classes[trace.klass] = _ClassAgg(CATEGORIES)
        agg.count += 1
        agg.rt_sum += rt
        sums = agg.sums
        for cat, value in trace.breakdown.items():
            sums[cat] += value
        heapq.heappush(agg.heap, (rt, self._finish_seq, trace))
        self._finish_seq += 1
        if len(agg.heap) > EXEMPLARS:
            heapq.heappop(agg.heap)
        if self.flame is not None:
            phase = (self.phase_of(trace.start)
                     if self.phase_of is not None else "run")
            self.flame.fold(trace, phase)

    def reset(self, now: float) -> None:
        """Drop warm-up aggregates at the measurement-window start
        (mirrors ``Metrics.mark_window_start``).  In-flight stamps are
        kept: requests spanning the boundary keep tracing.  The flame
        accumulator is *not* cleared — warm-up requests stay in the
        flame under their own ``warmup`` phase label."""
        self.window_start = now
        self.sampled = 0
        self._classes.clear()

    # -- message resolution -----------------------------------------------

    @staticmethod
    def trace_of(message: Any) -> Optional[Trace]:
        """The trace a message belongs to, or ``None``.

        ``Query``/``QueryResponse`` carry their request state in
        ``.context`` (whose ``trace`` slot holds the trace);
        ``HttpRequest``/``HttpResponse`` and a posted ``RequestState``
        carry a ``trace`` attribute directly.
        """
        context = getattr(message, "context", None)
        if context is not None:
            return getattr(context, "trace", None)
        return getattr(message, "trace", None)

    # -- open-interval stamps ---------------------------------------------

    def stamp_wait(self, message: Any, now: float) -> None:
        self._wait_stamp[id(message)] = now

    def pop_wait(self, message: Any) -> Optional[float]:
        return self._wait_stamp.pop(id(message), None)

    # -- inspection --------------------------------------------------------

    def classes(self) -> Dict[str, _ClassAgg]:
        return self._classes

    def exemplars(self, klass: str) -> List[Trace]:
        """Slowest sampled traces for *klass*, slowest first
        (deterministic: rt then finish order)."""
        agg = self._classes.get(klass)
        if agg is None:
            return []
        return [trace for _rt, _seq, trace in
                sorted(agg.heap, key=lambda item: (-item[0], -item[1]))]
