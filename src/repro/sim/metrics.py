"""Measurement infrastructure: counters, CPU accounting, latency
recorders, and time series.

A single :class:`Metrics` object is shared by every component of a
simulation run.  Components record into namespaced keys
(``"selector.frontend.selects"``, ``"cpu.ctx_switches"``, ...); the
experiment harness reads them back to build the paper's tables.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["Metrics", "Counter", "CpuCharger", "LatencyRecorder",
           "TimeSeries", "CpuAccounting", "SKETCH_PERCENTILES"]

#: Percentiles the sketch mode tracks one P-squared estimator for — the
#: harness's reporting set plus the 0/100 endpoints held as min/max.
SKETCH_PERCENTILES = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)

#: Sketch mode answers exactly from a small buffer until this many
#: windowed samples have arrived (P-squared estimates are noisy early).
_SKETCH_EXACT_UNTIL = 64


class _P2Quantile:
    """One streaming quantile via the P-squared algorithm
    (Jain & Chlamtac, CACM 1985): five markers whose heights
    approximate the q-quantile without storing samples."""

    __slots__ = ("p", "_init", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float) -> None:
        self.p = p  # quantile in (0, 1)
        self._init: Optional[List[float]] = []

    def add(self, x: float) -> None:
        init = self._init
        if init is not None:
            init.append(x)
            if len(init) == 5:
                init.sort()
                p = self.p
                self._q = init
                self._n = [0.0, 1.0, 2.0, 3.0, 4.0]
                self._np = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]
                self._dn = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
                self._init = None
            return
        q = self._q
        n = self._n
        if x < q[0]:
            q[0] = x
            k = 0
        elif x < q[1]:
            k = 0
        elif x < q[2]:
            k = 1
        elif x < q[3]:
            k = 2
        elif x <= q[4]:
            k = 3
        else:
            q[4] = x
            k = 3
        for i in range(k + 1, 5):
            n[i] += 1.0
        np_ = self._np
        dn = self._dn
        for i in range(5):
            np_[i] += dn[i]
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if ((d >= 1.0 and n[i + 1] - n[i] > 1.0)
                    or (d <= -1.0 and n[i - 1] - n[i] < -1.0)):
                d = 1.0 if d > 0.0 else -1.0
                # Piecewise-parabolic prediction of the marker height;
                # fall back to linear when it would leave the bracket.
                qn = q[i] + d / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + d) * (q[i + 1] - q[i])
                    / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1])
                    / (n[i] - n[i - 1]))
                if not q[i - 1] < qn < q[i + 1]:
                    j = i + (1 if d > 0.0 else -1)
                    qn = q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
                q[i] = qn
                n[i] += d

    def value(self) -> float:
        init = self._init
        if init is not None:
            # Fewer than five samples: exact from the seed buffer.
            if not init:
                return math.nan
            values = sorted(init)
            rank = self.p * (len(values) - 1)
            low = int(rank)
            high = min(low + 1, len(values) - 1)
            return values[low] + (rank - low) * (values[high] - values[low])
        return self._q[2]


class LatencyRecorder:
    """Collects latency samples and answers percentile queries.

    Samples recorded before ``start_at`` (the measurement-window start,
    set by the harness after warm-up) are discarded at query time.

    **Exact mode** (the default) stores every sample in two flat
    ``array('d')`` columns (times, values) — samples are columnar at
    collection time, so the result transport can ship them as packed
    float buffers without a per-sample conversion pass.  Simulation
    time is monotone, so the window cut is a ``bisect`` over the time
    column (a linear-scan fallback covers hand-built recorders that
    append out of order).  Queries share one sorted copy of the
    windowed values, rebuilt only when a sample lands or ``start_at``
    moves since the last query, so ``cdf_points`` over six percentiles
    costs one sort instead of six and ``record`` stays bare appends.

    **Sketch mode** (``sketch=True``) keeps O(1) state per tracked
    percentile (:data:`SKETCH_PERCENTILES`, via P-squared estimators)
    plus count/sum/min/max, so long ``--full`` windows stop holding
    millions of samples.  Reported percentiles become estimates;
    untracked percentiles interpolate between the tracked ones (with
    0 -> min and 100 -> max).  Moving ``start_at`` forward resets the
    sketch, which is how the harness discards warm-up samples.
    """

    __slots__ = ("_times", "_values", "_last_time", "_monotone",
                 "_start_at", "_cache", "_cache_len",
                 "_cache_start", "_sketch", "_estimators", "_count",
                 "_sum", "_min", "_max", "_seed", "_raw_total")

    def __init__(self, sketch: bool = False) -> None:
        self._times = array("d")
        self._values = array("d")
        self._last_time = -math.inf
        self._monotone = True
        self._start_at = 0.0
        self._cache: Optional[List[float]] = None
        self._cache_len = -1
        self._cache_start = 0.0
        self._sketch = sketch
        self._raw_total = 0
        if sketch:
            self._reset_sketch()

    def _reset_sketch(self) -> None:
        self._estimators = {q: _P2Quantile(q / 100.0)
                            for q in SKETCH_PERCENTILES}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._seed: List[float] = []

    @property
    def is_sketch(self) -> bool:
        return self._sketch

    @property
    def start_at(self) -> float:
        return self._start_at

    @start_at.setter
    def start_at(self, value: float) -> None:
        if self._sketch and value != self._start_at:
            # The sketch cannot retroactively un-record warm-up samples;
            # restarting the estimators has the same effect because
            # record() drops samples before the new window start.
            self._reset_sketch()
        self._start_at = value

    def record(self, now: float, value: float) -> None:
        """Record *value* observed at simulated time *now*."""
        self._raw_total += 1
        if not self._sketch:
            if now < self._last_time:
                self._monotone = False
            else:
                self._last_time = now
            self._times.append(now)
            self._values.append(value)
            return
        if now < self._start_at:
            return
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._seed) < _SKETCH_EXACT_UNTIL:
            self._seed.append(value)
        for estimator in self._estimators.values():
            estimator.add(value)

    def _window_lo(self) -> int:
        """Index of the first sample inside the measurement window."""
        if self._monotone:
            return bisect.bisect_left(self._times, self._start_at)
        # Out-of-order appends (hand-built recorders only): no index
        # structure holds, fall back to a full scan via window_columns.
        return -1

    def _window_sorted(self) -> List[float]:
        """Sorted windowed values; cached until the inputs change."""
        n = len(self._values)
        if (self._cache is not None and self._cache_len == n
                and self._cache_start == self._start_at):
            return self._cache
        start = self._start_at
        lo = self._window_lo()
        if lo >= 0:
            values = sorted(self._values[lo:])
        else:
            values = sorted(v for (t, v) in zip(self._times, self._values)
                            if t >= start)
        self._cache = values
        self._cache_len = n
        self._cache_start = start
        return values

    def window_columns(self) -> Tuple[array, array]:
        """The windowed samples as flat ``array('d')`` (times, values)
        columns in arrival order — the transport-ready view.  Sketch
        mode stores no samples and returns empty columns."""
        if self._sketch:
            return array("d"), array("d")
        lo = self._window_lo()
        if lo >= 0:
            return self._times[lo:], self._values[lo:]
        start = self._start_at
        times = array("d")
        values = array("d")
        for t, v in zip(self._times, self._values):
            if t >= start:
                times.append(t)
                values.append(v)
        return times, values

    def __len__(self) -> int:
        if self._sketch:
            return self._count
        return len(self._window_sorted())

    @property
    def raw_count(self) -> int:
        """All samples ever recorded, including warm-up."""
        return self._raw_total

    @staticmethod
    def _interpolate(values: List[float], q: float) -> float:
        if len(values) == 1:
            return values[0]
        rank = (q / 100.0) * (len(values) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(values) - 1)
        frac = rank - low
        # This form is exact when neighbours are equal, keeping the
        # percentile function monotone under float rounding.
        return values[low] + frac * (values[high] - values[low])

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0..100); linear interpolation in exact
        mode, a P-squared estimate in sketch mode."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        if not self._sketch:
            values = self._window_sorted()
            if not values:
                return math.nan
            return self._interpolate(values, q)
        if self._count == 0:
            return math.nan
        if self._count <= len(self._seed):
            # Small window: every sample is still in the seed buffer.
            return self._interpolate(sorted(self._seed), q)
        estimator = self._estimators.get(q)
        if estimator is not None:
            value = estimator.value()
            return min(max(value, self._min), self._max)
        # Untracked percentile: interpolate between the tracked marks,
        # anchored by min (q=0) and max (q=100).
        marks = [(0.0, self._min)]
        marks += [(mark, min(max(self._estimators[mark].value(), self._min),
                             self._max))
                  for mark in SKETCH_PERCENTILES]
        marks.append((100.0, self._max))
        for (lo_q, lo_v), (hi_q, hi_v) in zip(marks, marks[1:]):
            if lo_q <= q <= hi_q:
                if hi_q == lo_q:
                    return lo_v
                frac = (q - lo_q) / (hi_q - lo_q)
                return lo_v + frac * (hi_v - lo_v)
        return self._max  # pragma: no cover - marks span [0, 100]

    def mean(self) -> float:
        """Arithmetic mean of windowed samples (NaN when empty)."""
        if self._sketch:
            return self._sum / self._count if self._count else math.nan
        values = self._window_sorted()
        if not values:
            return math.nan
        return sum(values) / len(values)

    def maximum(self) -> float:
        if self._sketch:
            return self._max if self._count else math.nan
        values = self._window_sorted()
        return values[-1] if values else math.nan

    def cdf_points(self, percentiles: Iterable[float]) -> List[Tuple[float, float]]:
        """(percentile, value) pairs — one row per requested percentile."""
        return [(q, self.percentile(q)) for q in percentiles]


class TimeSeries:
    """Append-only (time, value) series, e.g. running-thread counts.

    Backed by two flat ``array('d')`` columns so a window is a pair of
    ``bisect`` cuts plus buffer slices — :meth:`columns` hands the raw
    slices to the result transport with no per-sample conversion.
    """

    __slots__ = ("_times", "_values")

    def __init__(self) -> None:
        self._times = array("d")
        self._values = array("d")

    def append(self, now: float, value: float) -> None:
        if self._times and now < self._times[-1]:
            raise ValueError("time series must be appended in time order")
        self._times.append(now)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def items(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Samples with start <= t < end."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def columns(self, start: float = 0.0,
                end: float = math.inf) -> Tuple[array, array]:
        """The ``start <= t < end`` window as flat ``array('d')``
        (times, values) columns — same cut as :meth:`window`, no
        tuple boxing."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return self._times[lo:hi], self._values[lo:hi]

    def mean(self, start: float = 0.0, end: float = math.inf) -> float:
        pairs = self.window(start, end)
        if not pairs:
            return math.nan
        return sum(v for (_t, v) in pairs) / len(pairs)


class GaugeBoard:
    """Columnar multi-gauge store: many gauges sampled at the same
    ticks share one time column.

    Where :class:`TimeSeries` pairs one time column with one value
    column, the telemetry ticker samples tens of gauges at every tick —
    a shared time column plus one ``array('d')`` value column per gauge
    keeps that O(gauges) floats per tick with no per-sample boxing, and
    the columns ride the pooled result transport as-is.
    """

    __slots__ = ("names", "_times", "_columns")

    def __init__(self, names) -> None:
        self.names: Tuple[str, ...] = tuple(names)
        self._times = array("d")
        self._columns = tuple(array("d") for _ in self.names)

    def append(self, now: float, values) -> None:
        """Record one tick: *values* aligned with :attr:`names`."""
        if len(values) != len(self._columns):
            raise ValueError(
                f"expected {len(self._columns)} gauge values, "
                f"got {len(values)}")
        if self._times and now < self._times[-1]:
            raise ValueError("gauge board must be appended in time order")
        self._times.append(now)
        for column, value in zip(self._columns, values):
            column.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> array:
        return self._times

    def column(self, name: str) -> array:
        """The value column for gauge *name*."""
        return self._columns[self.names.index(name)]

    def columns(self) -> Tuple[array, ...]:
        """All value columns, aligned with :attr:`names`."""
        return self._columns

    def as_dict(self) -> Dict[str, array]:
        """name → value-column view (columns shared, not copied)."""
        return dict(zip(self.names, self._columns))


class Counter:
    """An interned counter handle: one float cell bound to a name.

    Hot call sites obtain a handle once (:meth:`Metrics.counter`) and
    bump it with :meth:`add` — no f-string construction and no dict
    lookup per event.  The cell *is* the counter's storage; the merged
    :attr:`Metrics.counters` view folds handles back in by name.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class CpuCharger:
    """An interned CPU-charge handle for one accounting category.

    Owns the category's busy-time cell.  The first charge (of any
    amount, including zero) links the handle into the accounting's
    category order, so :meth:`CpuAccounting.windowed` iterates in exact
    first-charge order — the float-summation order the pre-handle
    ``defaultdict`` gave, which downstream share calculations depend on
    for bit-identical results.
    """

    __slots__ = ("category", "value", "_linked", "_acct")

    def __init__(self, acct: "CpuAccounting", category: str) -> None:
        self._acct = acct
        self.category = category
        self.value = 0.0
        self._linked = False

    def add(self, amount: float) -> None:
        acct = self._acct
        if acct._co_sources:
            # Coalesced stints elsewhere may have slice boundaries due
            # before this charge: commit them first so the global charge
            # order matches the sliced schedule.
            acct.co_sync()
        if not self._linked:
            self._linked = True
            acct._order.append(self)
        self.value += amount
        acct._busy_ever += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CpuCharger {self.category}={self.value}>"


class CpuAccounting:
    """Tracks busy time per CPU-work category.

    Categories mirror the paper's perf breakdown: ``app`` (useful work),
    ``lock`` (futex), ``thread_init``, ``select``, ``syscall`` (send/recv),
    ``ctx_switch``.  ``window_start`` is set by the harness after
    warm-up so utilisation reflects only the measurement window.

    Storage lives in per-category :class:`CpuCharger` handles
    (:meth:`charger`); :attr:`busy_by_category` is a read view built
    from them.  The accounting also hosts the *coalesced-stint* commit
    protocol: a :class:`~repro.sim.cpu.Cpu` running an uncontended
    multi-quantum stint defers its per-slice charges behind a cursor
    registered here, and every read or charge first calls
    :meth:`co_sync` to commit all deferred slice boundaries up to the
    current instant, in exactly the order the sliced schedule would
    have charged them.
    """

    __slots__ = ("window_start", "_warmup_by_category", "_busy_ever",
                 "_chargers", "_order", "_co_sources", "_co_reg")

    def __init__(self) -> None:
        self._chargers: Dict[str, CpuCharger] = {}
        #: Chargers in first-charge order (the float-sum order).
        self._order: List[CpuCharger] = []
        self._warmup_by_category: Dict[str, float] = {}
        self.window_start = 0.0
        # Running total of all busy time ever charged (cheap monotonic
        # clock of "work done by the machine", used by the cache model);
        # read through the syncing :attr:`total_busy_ever` property.
        self._busy_ever = 0.0
        #: Active coalesced-stint cursors with uncommitted boundaries.
        self._co_sources: List[Any] = []
        self._co_reg = 0

    # -- handles ---------------------------------------------------------

    def charger(self, category: str) -> CpuCharger:
        """The interned :class:`CpuCharger` handle for *category*."""
        ch = self._chargers.get(category)
        if ch is None:
            ch = CpuCharger(self, category)
            self._chargers[category] = ch
        return ch

    def charge(self, category: str, amount: float) -> None:
        if amount < 0:
            raise ValueError("cannot charge negative CPU time")
        self.charger(category).add(amount)

    @property
    def total_busy_ever(self) -> float:
        """Busy seconds since the start of the run, all categories.

        A monotonic clock of "work done by the machine" (the cache
        model measures other threads' progress with it).  Commits any
        deferred coalesced-stint charges first, so mid-stint reads see
        exactly what the sliced schedule would have accumulated.
        """
        if self._co_sources:
            self.co_sync()
        return self._busy_ever

    @property
    def busy_by_category(self) -> Dict[str, float]:
        """Busy seconds per category since the start of the run.

        A read view (a fresh ``defaultdict(float)``, so missing
        categories read as 0.0 like the original storage did); mutate
        through :meth:`charge` / :meth:`charger`.
        """
        if self._co_sources:
            self.co_sync()
        view: Dict[str, float] = defaultdict(float)
        for ch in self._order:
            view[ch.category] = ch.value
        return view

    # -- coalesced-stint commit protocol ---------------------------------

    def co_register(self, source: Any) -> None:
        """Register a coalesced-stint cursor.

        *source* must expose ``sim`` (for ``now``), ``next_t`` /
        ``prev_t`` (time of its next uncommitted slice boundary and of
        the boundary before it), ``exhausted``, and
        ``commit_next(acct)`` advancing one boundary.
        """
        self._co_reg += 1
        source.reg = self._co_reg
        self._co_sources.append(source)

    def co_sync(self) -> None:
        """Commit every deferred slice boundary with ``t <= now``.

        Boundaries across concurrent cursors merge in
        ``(t, prev_t, reg)`` order: time first; ties (structurally
        aligned stints that started the same instant with equal slice
        patterns) resolve by scheduling time then registration order,
        which matches the sliced schedule's event-sequence order.
        """
        sources = self._co_sources
        if not sources:
            return
        now = sources[0].sim.now
        if len(sources) == 1:
            src = sources[0]
            while not src.exhausted and src.next_t <= now:
                src.commit_next(self)
            if src.exhausted:
                self._co_sources = []
            return
        while True:
            best = None
            best_key = None
            for src in sources:
                if src.exhausted or src.next_t > now:
                    continue
                key = (src.next_t, src.prev_t, src.reg)
                if best is None or key < best_key:
                    best = src
                    best_key = key
            if best is None:
                break
            best.commit_next(self)
        if any(src.exhausted for src in sources):
            self._co_sources = [s for s in sources if not s.exhausted]

    # -- windows ---------------------------------------------------------

    def mark_window_start(self, now: float) -> None:
        """Freeze warm-up totals; subsequent queries subtract them."""
        if self._co_sources:
            self.co_sync()
        self.window_start = now
        self._warmup_by_category = {ch.category: ch.value
                                    for ch in self._order}

    def windowed(self) -> Dict[str, float]:
        """Busy seconds per category inside the measurement window."""
        if self._co_sources:
            self.co_sync()
        warmup = self._warmup_by_category
        return {
            ch.category: ch.value - warmup.get(ch.category, 0.0)
            for ch in self._order
        }

    def total_busy(self) -> float:
        return sum(self.windowed().values())

    def utilization(self, now: float, cores: int) -> float:
        """Fraction of core-time busy over the measurement window."""
        elapsed = now - self.window_start
        if elapsed <= 0:
            return 0.0
        return self.total_busy() / (elapsed * cores)

    def category_share(self, category: str) -> float:
        """Share of *busy* CPU spent in *category* (paper's perf rows)."""
        total = self.total_busy()
        if total <= 0:
            return 0.0
        return self.windowed().get(category, 0.0) / total


class Metrics:
    """Shared sink for every measurement a simulation produces."""

    def __init__(self, latency_sketch: bool = False) -> None:
        self._lazy: Dict[str, float] = defaultdict(float)
        self._handles: Dict[str, Counter] = {}
        self._warmup_counters: Dict[str, float] = {}
        self.latencies: Dict[str, LatencyRecorder] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.cpu = CpuAccounting()
        self.window_start = 0.0
        #: When True, new recorders use the P-squared sketch mode.
        self.latency_sketch = latency_sketch

    # -- counters -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The interned :class:`Counter` handle for *name*.

        Any value accumulated through :meth:`add` before the handle was
        created migrates into the handle, so interning never loses or
        duplicates counts.
        """
        handle = self._handles.get(name)
        if handle is None:
            handle = Counter(name, self._lazy.pop(name, 0.0))
            self._handles[name] = handle
        return handle

    def add(self, name: str, amount: float = 1.0) -> None:
        handle = self._handles.get(name)
        if handle is not None:
            handle.value += amount
        else:
            self._lazy[name] += amount

    @property
    def counters(self) -> Dict[str, float]:
        """Merged name → value view over lazy counters and handles.

        Handle names appear as soon as :meth:`counter` interns them
        (at 0.0 before the first bump), lazy names on first
        :meth:`add`.  Read-only: a fresh dict per access.
        """
        view = dict(self._lazy)
        for name, handle in self._handles.items():
            view[name] = handle.value
        return view

    def count(self, name: str) -> float:
        """Counter value within the measurement window."""
        return self.raw_count(name) - self._warmup_counters.get(name, 0.0)

    def raw_count(self, name: str) -> float:
        handle = self._handles.get(name)
        if handle is not None:
            return handle.value
        return self._lazy.get(name, 0.0)

    # -- latencies / series ----------------------------------------------

    def latency(self, name: str) -> LatencyRecorder:
        recorder = self.latencies.get(name)
        if recorder is None:
            recorder = LatencyRecorder(sketch=self.latency_sketch)
            recorder.start_at = self.window_start
            self.latencies[name] = recorder
        return recorder

    def timeseries(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = TimeSeries()
            self.series[name] = series
        return series

    # -- windowing --------------------------------------------------------

    def mark_window_start(self, now: float) -> None:
        """Called by the harness when warm-up ends."""
        self.window_start = now
        self._warmup_counters = self.counters
        self.cpu.mark_window_start(now)
        for recorder in self.latencies.values():
            recorder.start_at = now

    # -- derived ------------------------------------------------------------

    def rate(self, name: str, now: float) -> float:
        """Windowed counter divided by window length (events/second)."""
        elapsed = now - self.window_start
        if elapsed <= 0:
            return 0.0
        return self.count(name) / elapsed
