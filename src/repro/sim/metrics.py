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
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Metrics", "Counter", "CpuCharger", "LatencyRecorder",
           "TimeSeries", "CpuAccounting"]


class LatencyRecorder:
    """Collects latency samples and answers percentile queries.

    Samples recorded before ``start_at`` (the measurement-window start,
    set by the harness after warm-up) are discarded at query time.

    Every sample is stored in two flat ``array('d')`` columns (times,
    values) — samples are columnar at collection time, so a pooled
    result pickles them as raw float bytes without a per-sample
    conversion pass.  Simulation time is monotone, so the
    window cut is a ``bisect`` over the time column (a linear-scan
    fallback covers hand-built recorders that append out of order).
    Queries share one sorted copy of the windowed values, rebuilt only
    when a sample lands or ``start_at`` moves since the last query, so
    ``cdf_points`` over six percentiles costs one sort instead of six
    and ``record`` stays bare appends.
    """

    __slots__ = ("_times", "_values", "_last_time", "_monotone",
                 "start_at", "_cache", "_cache_len", "_cache_start")

    def __init__(self) -> None:
        self._times = array("d")
        self._values = array("d")
        self._last_time = -math.inf
        self._monotone = True
        self.start_at = 0.0
        self._cache: Optional[List[float]] = None
        self._cache_len = -1
        self._cache_start = 0.0

    def record(self, now: float, value: float) -> None:
        """Record *value* observed at simulated time *now*."""
        if now < self._last_time:
            self._monotone = False
        else:
            self._last_time = now
        self._times.append(now)
        self._values.append(value)

    def _window_lo(self) -> int:
        """Index of the first sample inside the measurement window."""
        if self._monotone:
            return bisect.bisect_left(self._times, self.start_at)
        # Out-of-order appends (hand-built recorders only): no index
        # structure holds, fall back to a full scan via window_columns.
        return -1

    def _window_sorted(self) -> List[float]:
        """Sorted windowed values; cached until the inputs change."""
        n = len(self._values)
        if (self._cache is not None and self._cache_len == n
                and self._cache_start == self.start_at):
            return self._cache
        start = self.start_at
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
        columns in arrival order — the view the result carries."""
        lo = self._window_lo()
        if lo >= 0:
            return self._times[lo:], self._values[lo:]
        start = self.start_at
        times = array("d")
        values = array("d")
        for t, v in zip(self._times, self._values):
            if t >= start:
                times.append(t)
                values.append(v)
        return times, values

    def __len__(self) -> int:
        return len(self._window_sorted())

    @property
    def raw_count(self) -> int:
        """All samples ever recorded, including warm-up."""
        return len(self._values)

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
        """The *q*-th percentile (0..100), by linear interpolation."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        values = self._window_sorted()
        if not values:
            return math.nan
        return self._interpolate(values, q)

    def mean(self) -> float:
        """Arithmetic mean of windowed samples (NaN when empty)."""
        values = self._window_sorted()
        if not values:
            return math.nan
        return sum(values) / len(values)

    def maximum(self) -> float:
        values = self._window_sorted()
        return values[-1] if values else math.nan

    def cdf_points(self, percentiles: Iterable[float]) -> List[Tuple[float, float]]:
        """(percentile, value) pairs — one row per requested percentile."""
        return [(q, self.percentile(q)) for q in percentiles]


class TimeSeries:
    """Append-only (time, value) series, e.g. running-thread counts.

    Backed by two flat ``array('d')`` columns so a window is a pair of
    ``bisect`` cuts plus buffer slices — :meth:`columns` hands the raw
    slices to the result with no per-sample conversion.
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
    the columns ride on the result as-is.
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
    lookup per event.  The cell *is* the counter's storage: every
    counter of a :class:`Metrics` lives in one such handle.
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
        if not self._linked:
            self._linked = True
            acct._order.append(self)
        self.value += amount
        acct.total_busy_ever += amount

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
    from them.
    """

    __slots__ = ("window_start", "_warmup_by_category", "total_busy_ever",
                 "_chargers", "_order")

    def __init__(self) -> None:
        self._chargers: Dict[str, CpuCharger] = {}
        #: Chargers in first-charge order (the float-sum order).
        self._order: List[CpuCharger] = []
        self._warmup_by_category: Dict[str, float] = {}
        self.window_start = 0.0
        #: Busy seconds since the start of the run, all categories: a
        #: monotonic clock of "work done by the machine" (the cache
        #: model measures other threads' progress with it).  Bumped by
        #: :meth:`CpuCharger.add`.
        self.total_busy_ever = 0.0

    # -- handles ---------------------------------------------------------

    def charger(self, category: str) -> CpuCharger:
        """The interned :class:`CpuCharger` handle for *category*."""
        ch = self._chargers.get(category)
        if ch is None:
            ch = CpuCharger(self, category)
            self._chargers[category] = ch
        return ch

    def charge(self, category: str, amount: float) -> None:
        if not (amount >= 0):  # also rejects NaN
            raise ValueError("cannot charge negative CPU time")
        self.charger(category).add(amount)

    @property
    def busy_by_category(self) -> Dict[str, float]:
        """Busy seconds per category since the start of the run.

        A read view (a fresh ``defaultdict(float)``, so missing
        categories read as 0.0 like the original storage did); mutate
        through :meth:`charge` / :meth:`charger`.
        """
        view: Dict[str, float] = defaultdict(float)
        for ch in self._order:
            view[ch.category] = ch.value
        return view

    # -- windows ---------------------------------------------------------

    def mark_window_start(self, now: float) -> None:
        """Freeze warm-up totals; subsequent queries subtract them."""
        self.window_start = now
        self._warmup_by_category = {ch.category: ch.value
                                    for ch in self._order}

    def windowed(self) -> Dict[str, float]:
        """Busy seconds per category inside the measurement window."""
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

    def __init__(self) -> None:
        self._handles: Dict[str, Counter] = {}
        self._warmup_counters: Dict[str, float] = {}
        self.latencies: Dict[str, LatencyRecorder] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.cpu = CpuAccounting()
        self.window_start = 0.0

    # -- counters -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The interned :class:`Counter` handle for *name*."""
        handle = self._handles.get(name)
        if handle is None:
            handle = Counter(name)
            self._handles[name] = handle
        return handle

    def add(self, name: str, amount: float = 1.0) -> None:
        """Bump counter *name*, interning it on first use."""
        self.counter(name).value += amount

    @property
    def counters(self) -> Dict[str, float]:
        """name → value view over every counter.

        A name appears when it is first interned (:meth:`counter`, at
        0.0 before the first bump) or counted (:meth:`add`).
        Read-only: a fresh dict per access.
        """
        return {name: handle.value for name, handle in self._handles.items()}

    def count(self, name: str) -> float:
        """Counter value within the measurement window."""
        return self.raw_count(name) - self._warmup_counters.get(name, 0.0)

    def raw_count(self, name: str) -> float:
        handle = self._handles.get(name)
        return handle.value if handle is not None else 0.0

    # -- latencies / series ----------------------------------------------

    def latency(self, name: str) -> LatencyRecorder:
        recorder = self.latencies.get(name)
        if recorder is None:
            recorder = LatencyRecorder()
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
