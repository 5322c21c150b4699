"""Every paper exhibit (figure or table), as data.

An exhibit is an :class:`Exhibit`: ``points(quick, seed)`` declares its
experiment grid as a flat list of ``(key, ExperimentConfig)`` points,
and ``render(pairs, quick)`` turns the ``(key, result)`` pairs, in
declared order, into an :class:`ExhibitResult` holding both the
rendered text (the same rows/series the paper reports) and the raw data
(asserted on by the benchmark suite).  :data:`EXHIBITS` registers them.

:func:`run_exhibits` is the one runner.  It applies the trace/obs
overlays to every declared config, sends all selected exhibits' points
through one executor (:func:`repro.experiments.parallel.iter_experiments`,
heaviest first, ``jobs=1`` in-process), collects each point's trace and
telemetry artifacts, and renders each exhibit as soon as its last point
is back.  Nothing in this module holds per-run state.

``quick=True`` (the default, used by the pytest-benchmark harness)
shrinks measurement windows and grids so the whole suite completes in
minutes; ``quick=False`` (the CLI's ``--full``) uses the full grids.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import partial
from types import MappingProxyType
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from ..faults import FaultConfig, ResilienceConfig
from ..obs import DEFAULT_OBS_PERIOD, prometheus_snapshot
from ..sim.params import KB
from .config import ExperimentConfig, ExperimentResult
from .parallel import iter_experiments
from .report import (normalize, render_breakdown, render_flame,
                     render_series, render_table)

__all__ = ["Exhibit", "ExhibitResult", "EXHIBITS", "run_exhibits"]

Points = List[Tuple[Any, ExperimentConfig]]
Pairs = List[Tuple[Any, ExperimentResult]]


@dataclass
class ExhibitResult:
    """Output of one exhibit run."""

    exhibit: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


@dataclass(frozen=True)
class Exhibit:
    """One exhibit as data: the points it runs and how it renders them."""

    points: Callable[[bool, int], Points]
    render: Callable[[Pairs, bool], ExhibitResult]


def _concurrency_grid(quick: bool) -> List[int]:
    return [1, 16, 64, 256] if quick else [1, 4, 16, 64, 256, 1024]


def _closed(server: str, datastore: str, conc: int, fanout: int,
            size: int, seed: int, quick: bool, **kw) -> ExperimentConfig:
    # Larger payloads and higher concurrency need longer windows for the
    # queues to reach steady state.
    slow = size >= 4 * KB
    warmup = (1.5 if slow else 0.3) + (1.0 if conc >= 256 else 0.0)
    duration = (3.0 if slow else 0.8) if quick else (8.0 if slow else 2.5)
    # Closed-loop exhibits only chart throughput/percentiles: keep the
    # pickled result payload small.
    kw.setdefault("keep_selector_stats", False)
    return ExperimentConfig(
        server=server, datastore=datastore, concurrency=conc, fanout=fanout,
        response_size=size, warmup=warmup, duration=duration, seed=seed, **kw)


# ---------------------------------------------------------------------------
# Figure 4 — thread-based vs asynchronous drivers per datastore family
# ---------------------------------------------------------------------------

# The async DynamoDB/HBase drivers are Type-1; MongoDB's default async
# driver is the Type-2b AIO backend.
_FIG04_FAMILIES = (("dynamodb", "type1"), ("hbase", "type1"),
                   ("mongodb", "aio"))


def _fig04_points(quick: bool, seed: int) -> Points:
    """Throughput vs. workload concurrency for DynamoDB, HBase, and
    MongoDB with thread-based vs. asynchronous drivers (fanout 5,
    0.1 kB responses)."""
    return [((datastore, label), _closed(
        kind, datastore, conc, fanout=5, size=100, seed=seed, quick=quick))
        for datastore, async_kind in _FIG04_FAMILIES
        for conc in _concurrency_grid(quick)
        for label, kind in ((f"{datastore}-async", async_kind),
                            (f"{datastore}-thread", "threadbased"))]


def _fig04_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    grid = _concurrency_grid(quick)
    data: Dict[str, Dict[str, List[float]]] = {
        datastore: {f"{datastore}-async": [], f"{datastore}-thread": []}
        for datastore, _async_kind in _FIG04_FAMILIES}
    for (datastore, label), result in pairs:
        data[datastore][label].append(result.throughput)
    sections = [render_series(
        f"Figure 4 ({datastore}): throughput [req/s] vs concurrency",
        "conc", grid, data[datastore]) for datastore, _ in _FIG04_FAMILIES]
    return ExhibitResult("fig04", "Thread-based vs asynchronous drivers",
                         "\n\n".join(sections),
                         {"concurrency": grid, **data})


# ---------------------------------------------------------------------------
# Figure 5 — MongoDB driver comparison across response sizes
# ---------------------------------------------------------------------------

_FIG05_SIZES = ((20 * KB, "20kB"), (1 * KB, "1kB"), (100, "0.1kB"))
_FIG05_SERVERS = (("AIOBackend", "aio"), ("NettyBackend", "netty"),
                  ("Threadbased", "threadbased"))


def _fig05_points(quick: bool, seed: int) -> Points:
    """AIOBackend vs NettyBackend vs Threadbased for MongoDB across
    response sizes 20 kB / 1 kB / 0.1 kB (fanout 5)."""
    return [((size_label, label), _closed(
        kind, "mongodb", conc, fanout=5, size=size, seed=seed, quick=quick))
        for size, size_label in _FIG05_SIZES
        for label, kind in _FIG05_SERVERS
        for conc in _concurrency_grid(quick)]


def _fig05_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    grid = _concurrency_grid(quick)
    data: Dict[str, Dict[str, List[float]]] = {
        size_label: {label: [] for label, _kind in _FIG05_SERVERS}
        for _size, size_label in _FIG05_SIZES}
    for (size_label, label), result in pairs:
        data[size_label][label].append(result.throughput)
    sections = [render_series(
        f"Figure 5 ({size_label} responses): throughput [req/s]",
        "conc", grid, data[size_label]) for _size, size_label in _FIG05_SIZES]
    return ExhibitResult("fig05", "MongoDB drivers across response sizes",
                         "\n\n".join(sections),
                         {"concurrency": grid, **data})


# ---------------------------------------------------------------------------
# Table 1 — perf breakdown at 20 kB
# ---------------------------------------------------------------------------

def _tab1_points(quick: bool, seed: int) -> Points:
    """Context switches, running threads, lock and thread-init CPU for
    AIOBackend / NettyBackend / Threadbased (conc 100, fanout 5, 20 kB)."""
    duration = 4.0 if quick else 10.0
    return [(label, ExperimentConfig(
        server=kind, concurrency=100, fanout=5, response_size=20 * KB,
        warmup=2.0, duration=duration, seed=seed,
        keep_selector_stats=False))
        for label, kind in (("AIOBackend", "aio"), ("NettyBackend", "netty"),
                            ("Threadbased", "threadbased"))]


def _tab1_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    results = dict(pairs)
    headers = ["metric"] + list(results.keys())
    rows = [
        ["Throughput [req/s]"] + [round(r.throughput) for r in results.values()],
        ["Concurrent running threads"] + [round(r.avg_running_threads, 1)
                                          for r in results.values()],
        ["Context switches [/s]"] + [round(r.ctx_switches_per_sec)
                                     for r in results.values()],
        ["Locking (mutex) CPU [%]"] + [round(100 * r.cpu_shares["lock"], 1)
                                       for r in results.values()],
        ["Thread initiation CPU [%]"] + [
            round(100 * r.cpu_shares["thread_init"], 1)
            for r in results.values()],
        ["ctx-switch CPU [%]"] + [round(100 * r.cpu_shares["ctx_switch"], 1)
                                  for r in results.values()],
    ]
    text = render_table(
        "Table 1: multithreading overhead (conc 100, fanout 5, 20kB)",
        headers, rows)
    return ExhibitResult("tab1", "Multithreading overhead breakdown", text,
                         {label: {
                             "throughput": r.throughput,
                             "running_threads": r.avg_running_threads,
                             "ctx_per_sec": r.ctx_switches_per_sec,
                             "lock_share": r.cpu_shares["lock"],
                             "thread_init_share": r.cpu_shares["thread_init"],
                         } for label, r in results.items()})


# ---------------------------------------------------------------------------
# Figure 7 — AIO vs Netty normalized throughput across fanout (20 kB)
# ---------------------------------------------------------------------------

_FIG07_FANOUTS = (1, 5, 20)


def _fig07_points(quick: bool, seed: int) -> Points:
    """Normalized throughput (NettyBackend = 1.0) vs fanout factor at
    20 kB responses, concurrency 100."""
    duration = 3.0 if quick else 8.0
    return [(label, ExperimentConfig(
        server=kind, concurrency=100, fanout=fanout,
        response_size=20 * KB, warmup=2.0, duration=duration,
        seed=seed, keep_selector_stats=False))
        for fanout in _FIG07_FANOUTS
        for label, kind in (("NettyBackend", "netty"), ("AIOBackend", "aio"))]


def _fig07_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    fanouts = list(_FIG07_FANOUTS)
    series: Dict[str, List[float]] = {"NettyBackend": [], "AIOBackend": []}
    for label, result in pairs:
        series[label].append(result.throughput)
    norm = normalize(series, "NettyBackend")
    text = render_series(
        "Figure 7: normalized throughput vs fanout (20kB, conc 100)",
        "fanout", fanouts, norm)
    return ExhibitResult("fig07", "AIO degradation with fanout", text,
                         {"fanout": fanouts, "throughput": series,
                          "normalized": norm})


# ---------------------------------------------------------------------------
# Tables 2 and 3 — select() overhead and reactor counts at 0.1 kB
# ---------------------------------------------------------------------------

def _select_window(quick: bool) -> float:
    """Measurement window of the select()-counting tables."""
    return 1.5 if quick else 5.0


def _tab2_points(quick: bool, seed: int) -> Points:
    """select() counts and CPU share, AIOBackend vs NettyBackend
    (conc 100, fanout 5, 0.1 kB).  The paper reports a 30 s runtime; we
    report per-30s-equivalent counts."""
    return [(label, ExperimentConfig(
        server=kind, concurrency=100, fanout=5, response_size=100,
        warmup=0.5, duration=_select_window(quick), seed=seed,
        keep_selector_stats=False))
        for label, kind in (("AIOBackend", "aio"), ("NettyBackend", "netty"))]


def _tab2_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    results = dict(pairs)
    headers = ["metric"] + list(results.keys())
    rows = [
        ["Throughput [req/s]"] + [round(r.throughput)
                                  for r in results.values()],
        ["# of select() [30s runtime]"] + [
            round(r.selects_per_sec * 30.0)
            for r in results.values()],
        ["select() CPU share [%]"] + [
            round(100 * r.select_cpu_share
                  * r.cpu_utilization, 1)
            for r in results.values()],
    ]
    text = render_table(
        "Table 2: select() overhead (conc 100, fanout 5, 0.1kB)",
        headers, rows)
    return ExhibitResult("tab2", "select() overhead", text,
                         {label: {
                             "throughput": r.throughput,
                             "selects_30s": r.selects_per_sec * 30.0,
                             "select_cpu_share": r.select_cpu_share,
                         } for label, r in results.items()},)


_TAB3_CASES = (("OneCase", 1), ("TwoCase", 2), ("FourCase", 4))


def _tab3_points(quick: bool, seed: int) -> Points:
    """NettyBackend with 1 / 2 / 4 backend reactors: throughput and
    per-side select() efficiency (conc 100, fanout 5, 0.1 kB)."""
    return [(label, ExperimentConfig(
        server="netty", backend_reactors=n, concurrency=100, fanout=5,
        response_size=100, warmup=0.5, duration=_select_window(quick),
        seed=seed))
        for label, n in _TAB3_CASES]


def _tab3_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    results = dict(pairs)
    scale = 30.0 / _select_window(quick)
    cases = _TAB3_CASES

    def split(r):
        front = [s for s in r.selector_stats if "frontend" in s["name"]]
        back = [s for s in r.selector_stats if "backend" in s["name"]]
        f_sel = sum(s["selects"] for s in front)
        b_sel = sum(s["selects"] for s in back)
        f_ev = sum(s["events"] for s in front)
        b_ev = sum(s["events"] for s in back)
        return f_sel, b_sel, f_ev, b_ev

    headers = ["metric"] + [label for label, _n in cases]
    splits = {label: split(r) for label, r in results.items()}
    rows = [
        ["Throughput [req/s]"] + [round(r.throughput)
                                  for r in results.values()],
        ["total # select() [30s]"] + [
            round((splits[l][0] + splits[l][1]) * scale) for l, _ in cases],
        ["frontend select() [30s]"] + [round(splits[l][0] * scale)
                                       for l, _ in cases],
        ["backend select() [30s]"] + [round(splits[l][1] * scale)
                                      for l, _ in cases],
        ["events/select (frontend)"] + [
            round(splits[l][2] / splits[l][0], 1) if splits[l][0] else 0
            for l, _ in cases],
        ["events/select (backend)"] + [
            round(splits[l][3] / splits[l][1], 1) if splits[l][1] else 0
            for l, _ in cases],
    ]
    text = render_table(
        "Table 3: Netty backend reactor count (conc 100, fanout 5, 0.1kB)",
        headers, rows)
    return ExhibitResult("tab3", "Imbalanced reactor allocation", text,
                         {label: {
                             "throughput": r.throughput,
                             "frontend_selects": splits[label][0],
                             "backend_selects": splits[label][1],
                             "frontend_events": splits[label][2],
                             "backend_events": splits[label][3],
                         } for label, r in results.items()})


# ---------------------------------------------------------------------------
# Figure 9 — running-thread timelines
# ---------------------------------------------------------------------------

def _fig09_points(quick: bool, seed: int) -> Points:
    """Concurrently-running-thread timeline, NettyBackend vs AIOBackend
    (conc 100, fanout 5, 20 kB)."""
    duration = 4.0 if quick else 10.0
    return [(label, ExperimentConfig(
        server=kind, concurrency=100, fanout=5, response_size=20 * KB,
        warmup=2.0, duration=duration, seed=seed,
        thread_sample_period=0.1, keep_selector_stats=False))
        for label, kind in (("NettyBackend", "netty"), ("AIOBackend", "aio"))]


def _fig09_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    samples = {}
    stats = {}
    for label, result in pairs:
        samples[label] = result.thread_samples
        values = [v for (_t, v) in result.thread_samples]
        stats[label] = {
            "mean": sum(values) / len(values) if values else 0.0,
            "min": min(values) if values else 0.0,
            "max": max(values) if values else 0.0,
            "spread": (max(values) - min(values)) if values else 0.0,
        }
    xs = [round(t, 2) for (t, _v) in samples["NettyBackend"]]
    series = {label: [v for (_t, v) in pts] for label, pts in samples.items()}
    text = render_series(
        "Figure 9: concurrently running threads over time (20kB, conc 100)",
        "t[s]", xs, series)
    summary = render_table(
        "Figure 9 summary", ["server", "mean", "min", "max", "spread"],
        [[label, round(s["mean"], 1), s["min"], s["max"], s["spread"]]
         for label, s in stats.items()])
    return ExhibitResult("fig09", "Running-thread dynamics",
                         text + "\n\n" + summary,
                         {"samples": samples, "stats": stats})


# ---------------------------------------------------------------------------
# Figure 13 — DoubleFaceNetty vs baselines across fanout and size
# ---------------------------------------------------------------------------

_FIG13_SERVERS = (("DoubleFaceNetty", "doubleface"), ("NettyBackend", "netty"),
                  ("AIOBackend", "aio"))
_FIG13_SIZES = ((100, "0.1kB"), (20 * KB, "20kB"))


def _fig13_fanouts(quick: bool) -> List[int]:
    return [1, 5, 20] if quick else [1, 5, 10, 20]


def _fig13_points(quick: bool, seed: int) -> Points:
    """Normalized throughput (DoubleFaceNetty = 1.0) across fanout
    factors 1/5/10/20 at 0.1 kB and 20 kB, concurrency 20."""
    points: Points = []
    for size, size_label in _FIG13_SIZES:
        slow = size >= 4 * KB
        duration = (3.0 if quick else 8.0) if slow else (1.5 if quick else 4.0)
        warmup = 1.5 if slow else 0.5
        for label, kind in _FIG13_SERVERS:
            for fanout in _fig13_fanouts(quick):
                points.append(((size_label, label), ExperimentConfig(
                    server=kind, concurrency=20, fanout=fanout,
                    response_size=size, warmup=warmup, duration=duration,
                    seed=seed, keep_selector_stats=False)))
    return points


def _fig13_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    fanouts = _fig13_fanouts(quick)
    throughput: Dict[str, Dict[str, List[float]]] = {
        size_label: {label: [] for label, _kind in _FIG13_SERVERS}
        for _size, size_label in _FIG13_SIZES}
    for (size_label, label), result in pairs:
        throughput[size_label][label].append(result.throughput)
    sections = []
    data = {}
    for _size, size_label in _FIG13_SIZES:
        series = throughput[size_label]
        norm = normalize(series, "DoubleFaceNetty")
        data[size_label] = {"throughput": series, "normalized": norm}
        sections.append(render_series(
            f"Figure 13 ({size_label}): normalized throughput "
            "(DoubleFaceNetty = 1.0)", "fanout", fanouts, norm))
    return ExhibitResult("fig13", "DoubleFaceAD throughput comparison",
                         "\n\n".join(sections),
                         {"fanout": fanouts, **data})


# ---------------------------------------------------------------------------
# Figure 14 — CPU utilisation under RUBBoS-style open workload
# ---------------------------------------------------------------------------

def _fig14_cases(quick: bool) -> List[tuple]:
    """(size, label, users grid, think time, request business CPU)."""
    cases = [(100, "0.1kB", [100, 200, 300, 350], 0.32, 0.5e-3),
             (20 * KB, "20kB", [100, 200, 300], 6.5, 0.5e-3)]
    if quick:
        cases = [(size, label, users[1::2] if label == "0.1kB" else users[::2],
                  think, cpu)
                 for size, label, users, think, cpu in cases]
    return cases


def _fig14_points(quick: bool, seed: int) -> Points:
    """CPU utilisation vs. number of emulated users (fanout 20), for
    0.1 kB and 20 kB responses."""
    duration = 6.0 if quick else 20.0
    return [((size_label, label), ExperimentConfig(
        server=kind, workload="open", users=users,
        think_time=think, fanout=20, response_size=size,
        warmup=2.0, duration=duration, seed=seed,
        keep_selector_stats=False,
        params={"request_cpu": request_cpu}))
        for size, size_label, users_grid, think, request_cpu
        in _fig14_cases(quick)
        for label, kind in _FIG13_SERVERS
        for users in users_grid]


def _fig14_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    cases = _fig14_cases(quick)
    cpu_util: Dict[str, Dict[str, List[float]]] = {
        size_label: {label: [] for label, _kind in _FIG13_SERVERS}
        for _size, size_label, *_rest in cases}
    for (size_label, label), result in pairs:
        cpu_util[size_label][label].append(
            round(100 * result.cpu_utilization, 1))
    sections = []
    data = {}
    for _size, size_label, users_grid, *_rest in cases:
        data[size_label] = {"users": users_grid,
                            "cpu_util": cpu_util[size_label]}
        sections.append(render_series(
            f"Figure 14 ({size_label}): CPU utilisation [%] vs users "
            "(fanout 20)", "users", users_grid, cpu_util[size_label]))
    return ExhibitResult("fig14", "CPU overhead comparison",
                         "\n\n".join(sections), data)


# ---------------------------------------------------------------------------
# Figures 15/16/17 — percentile response time with the scheduler
# ---------------------------------------------------------------------------

#: Percentiles reported for the tail-latency exhibits.
TAIL_PERCENTILES = (50.0, 80.0, 90.0, 95.0, 99.0)

#: The four servers compared in Figures 15-17.
TAIL_SERVERS = (("w schedule", "doubleface"),
                ("w/o schedule", "doubleface-fifo"),
                ("AIOBackend", "aio"),
                ("NettyBackend", "netty"))


def _tail_points(lfan: int, sfan: int, size: int, large_shards: bool,
                 quick: bool, seed: int, users: int = 600,
                 think: float = 5.2, request_cpu: float = 0.3e-3,
                 request_cpu_cv: float = 0.5,
                 response_cpu: float = 1.2e-3,
                 assemble_cpu: float = 0.3e-3) -> Points:
    duration = 15.0 if quick else 40.0
    # RUBBoS-style pages do real per-sub-result business work (fragment
    # handling dominates), datastore service times are heavy-tailed
    # (service_cv=2.5: the shard "variety" that motivates the paper's
    # scheduler), and the app server is reported in its single-core
    # configuration, where reactor-thread contention — the effect under
    # study — is sharpest.
    return [(label, ExperimentConfig(
        server=kind, workload="open", users=users, think_time=think,
        lfan=lfan, sfan=sfan, response_size=size, reactors=1,
        large_shards=large_shards, warmup=4.0, duration=duration,
        seed=seed, keep_selector_stats=False,
        params={"app_cores": 1,
                           "request_cpu": request_cpu,
                           "request_cpu_cv": request_cpu_cv,
                           "response_base_cost": response_cpu,
                           "assemble_base_cost": assemble_cpu,
                           "service_cv": 2.5}))
        for label, kind in TAIL_SERVERS]


def _tail_render(exhibit: str, title: str, pairs: Pairs,
                 quick: bool = True) -> ExhibitResult:
    results = dict(pairs)
    series = {label: [1e3 * r.percentiles[q] for q in TAIL_PERCENTILES]
              for label, r in results.items()}
    text = render_series(
        f"{title}: percentile response time [ms]",
        "pctl", TAIL_PERCENTILES, series)
    summary = render_table(
        f"{title}: summary", ["server", "tput [req/s]", "p99 [ms]",
                              "CPU [%]"],
        [[label, round(r.throughput), 1e3 * r.percentiles[99.0],
          round(100 * r.cpu_utilization)] for label, r in results.items()])
    return ExhibitResult(
        exhibit, title, text + "\n\n" + summary,
        {label: {"p99": r.percentiles[99.0],
                 "p95": r.percentiles[95.0],
                 "p50": r.percentiles[50.0],
                 "throughput": r.throughput,
                 "cpu": r.cpu_utilization}
         for label, r in results.items()})


def _fig15_points(quick: bool, seed: int) -> Points:
    """Percentile response time on YCSB with the fanout-aware scheduler:
    (a) Lfan/Sfan = 5/3 and (b) 7/1."""
    return (_tail_points(5, 3, 100, False, quick, seed)
            + _tail_points(7, 1, 100, False, quick, seed))


def _fig15_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    # Both halves use the same server keys: split them by position.
    half = len(TAIL_SERVERS)
    a = _tail_render("fig15a", "Figure 15(a) Lfan/Sfan=5/3", pairs[:half])
    b = _tail_render("fig15b", "Figure 15(b) Lfan/Sfan=7/1", pairs[half:])
    return ExhibitResult("fig15", "Scheduler tail-latency gains",
                         a.text + "\n\n" + b.text,
                         {"a": a.data, "b": b.data})


#: Figure 16: Figure 15(a)'s experiment with 10 GB shards (slower
#: datastore service times).
_FIG16 = Exhibit(partial(_tail_points, 5, 3, 100, True),
                 partial(_tail_render, "fig16",
                         "Figure 16: large (10GB) shards"))

#: Figure 17: percentile response time on the DBLP dataset.  DBLP
#: tuples are 30 kB: payload decoding itself is the heavy per-response
#: work, no extra business cost is layered on.
_FIG17 = Exhibit(partial(_tail_points, 5, 3, 30 * KB, False, users=600,
                         think=8.4, request_cpu=0.3e-3,
                         response_cpu=12.0e-6, assemble_cpu=0.3e-3),
                 partial(_tail_render, "fig17", "Figure 17: DBLP dataset"))


# ---------------------------------------------------------------------------
# Fault exhibits — tail latency under failure (repro.faults)
# ---------------------------------------------------------------------------

#: The slow-shard fault both fault exhibits inject: two shards serve
#: 100x slower during "brown-out" windows covering ~30% of the run, so
#: a fanout-5 request over 20 shards hits an active slow shard often
#: enough to wreck p99 (~10x p50) while barely moving p50.
FAULT_SLOW_SHARDS = FaultConfig(
    slow_shards=2, slow_factor=100.0, slow_mean_on=0.3, slow_mean_off=0.7)


def _retry(**hedge) -> ResilienceConfig:
    """The per-sub-query deadline / retry budget shared by the resilient
    policies below (calibrated well above the healthy sub-query tail,
    well below the 30x brown-out service time), plus *hedge* settings."""
    return ResilienceConfig(subquery_deadline=5e-3, max_retries=3,
                            backoff_base=0.5e-3, backoff_cap=2e-3, **hedge)


def _p95_hedge(**kw) -> ResilienceConfig:
    """The adaptive p95 hedge on top of the shared retry budget."""
    return _retry(hedge_percentile=95.0, hedge_min_samples=50, **kw)


#: Servers compared under failure.
FAULT_SERVERS = (("DoubleFaceNetty", "doubleface"),
                 ("NettyBackend", "netty"),
                 ("AIOBackend", "aio"))


def _fault_point(kind: str, resilience: Optional[ResilienceConfig],
                 quick: bool, seed: int, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        server=kind, concurrency=20, fanout=5, response_size=100,
        warmup=0.5, duration=1.5 if quick else 6.0, seed=seed,
        faults=FAULT_SLOW_SHARDS, resilience=resilience,
        replicas_per_shard=2, keep_selector_stats=False, **kw)


def _fault_rows(data: Dict[str, Dict[str, float]],
                counters: Iterable[str]) -> List[list]:
    """One table row per policy in *data*: p50 / p99 [ms] and
    throughput, then *counters*."""
    return [[label, round(1e3 * row["p50"], 2), round(1e3 * row["p99"], 2),
             round(row["throughput"])]
            + [round(row[name]) for name in counters]
            for label, row in data.items()]


def _fault_summary(result) -> Dict[str, float]:
    counters = result.fault_counters
    return {
        "p50": result.percentiles[50.0],
        "p99": result.percentiles[99.0],
        "throughput": result.throughput,
        "retries": counters.get("resilience.retries", 0.0),
        "hedges": counters.get("resilience.hedges", 0.0),
        "hedge_wins": counters.get("resilience.hedge_wins", 0.0),
        "retry_wins": counters.get("resilience.retry_wins", 0.0),
        "deadline_misses": counters.get("resilience.deadline_misses", 0.0),
        "failovers": counters.get("resilience.failovers", 0.0),
        "failed_subqueries": counters.get(
            "resilience.failed_subqueries", 0.0),
        "degraded": counters.get("server.completed.degraded", 0.0),
    }


_FAULT_TAIL_POLICIES = (("no-resilience", None), ("retry", _retry()),
                        ("hedge+retry", _p95_hedge()))


def _fault_tail_points(quick: bool, seed: int) -> Points:
    """Tail latency under a slow-shard fault, with and without driver
    resilience.

    Three architectures x three policies (no resilience / deadline+retry
    with replica failover / the same plus an adaptive p95 hedge) under
    :data:`FAULT_SLOW_SHARDS` with two replicas per shard.  The headline
    result the benchmark suite pins: hedging+retry recovers >= 2x of the
    no-resilience p99.
    """
    return [((server_label, policy_label),
             _fault_point(kind, policy, quick, seed))
            for server_label, kind in FAULT_SERVERS
            for policy_label, policy in _FAULT_TAIL_POLICIES]


def _fault_tail_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    data: Dict[str, Dict[str, Dict[str, float]]] = {
        server_label: {} for server_label, _kind in FAULT_SERVERS}
    for (server_label, policy_label), result in pairs:
        data[server_label][policy_label] = _fault_summary(result)
    sections = []
    for server_label, _kind in FAULT_SERVERS:
        rows = _fault_rows(data[server_label],
                           ("retries", "hedges", "failed_subqueries"))
        sections.append(render_table(
            f"Fault tail ({server_label}): slow-shard brown-out, "
            "2 replicas/shard",
            ["policy", "p50 [ms]", "p99 [ms]", "tput [req/s]",
             "retries", "hedges", "failed"], rows))
    return ExhibitResult("fault_tail",
                         "Tail latency under a slow-shard fault",
                         "\n\n".join(sections), data)


_HEDGING_POLICIES = (
    ("no-hedge", _retry()),
    ("hedge-2ms", _retry(hedge_delay=2e-3)),
    ("hedge-4ms", _retry(hedge_delay=4e-3)),
    ("hedge-p95", _p95_hedge()),
)


def _hedging_points(quick: bool, seed: int) -> Points:
    """Hedging-policy sweep on DoubleFaceNetty under the slow-shard
    fault: no hedge, fixed hedge delays, and the adaptive p95 hedge,
    all on top of the same deadline+retry safety net."""
    return [(label, _fault_point("doubleface", policy, quick, seed))
            for label, policy in _HEDGING_POLICIES]


def _hedging_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    data: Dict[str, Dict[str, float]] = {}
    for label, result in pairs:
        data[label] = _fault_summary(result)
    rows = _fault_rows(data, ("hedges", "hedge_wins", "retries"))
    text = render_table(
        "Hedging policies (DoubleFaceNetty, slow-shard brown-out)",
        ["policy", "p50 [ms]", "p99 [ms]", "tput [req/s]", "hedges",
         "hedge wins", "retries"], rows)
    return ExhibitResult("hedging", "Hedged-request policy sweep", text,
                         data)


#: The correlated fault the open-workload exhibit injects: one of two
#: racks flips through short rack-wide brown-out windows (~50% duty,
#: 150 ms mean) where every replica it hosts serves 100x slower.  Under
#: the round-robin rack placement a 2-replica shard always spans both
#: racks, so for every shard exactly one replica stays healthy —
#: routing policy, not luck, decides whether the driver finds it.
FAULT_RACK = FaultConfig(
    rack_slow_racks=1, rack_slow_factor=100.0,
    rack_slow_mean_on=0.15, rack_slow_mean_off=0.15)

#: Racks / replicas the open-workload fault exhibit builds.
FAULT_OPEN_RACKS = 2

#: All five architectures face the rack fault.
FAULT_OPEN_SERVERS = (("DoubleFaceNetty", "doubleface"),
                      ("NettyBackend", "netty"),
                      ("AIOBackend", "aio"),
                      ("Type1Async", "type1"),
                      ("ThreadBased", "threadbased"))

_FAULT_OPEN_POLICIES = (
    ("primary", "primary", None),
    ("primary+retry", "primary", _retry()),
    ("replica+hedge", "least_outstanding", _p95_hedge()),
)


def _fault_open_points(quick: bool, seed: int) -> Points:
    """Open (RUBBoS-style Poisson) workload under a rack-wide fault.

    Every architecture runs three driver policies under
    :data:`FAULT_RACK` with two replicas per shard spanning two racks:

    - ``primary`` — primary-only routing, no resilience (the seed
      repo's behaviour);
    - ``primary+retry`` — primary-only routing with deadline+retry
      failover;
    - ``replica+hedge`` — least-outstanding replica routing plus the
      adaptive p95 hedge on top of the same retry budget.

    The headline the benchmark suite pins: ``replica+hedge`` beats
    ``primary`` on p99 by a fixed margin on every architecture, because
    least-outstanding routing drains load away from the browned-out
    rack *before* the deadline machinery has to fire.
    """
    return [((server_label, policy_label), ExperimentConfig(
        server=kind, workload="open", users=150, think_time=1.0,
        fanout=5, response_size=100,
        warmup=0.5, duration=1.5 if quick else 6.0, seed=seed,
        faults=FAULT_RACK, resilience=resilience,
        replicas_per_shard=2, racks=FAULT_OPEN_RACKS,
        replica_policy=replica_policy, keep_selector_stats=False))
        for server_label, kind in FAULT_OPEN_SERVERS
        for policy_label, replica_policy, resilience in _FAULT_OPEN_POLICIES]


def _fault_open_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    data: Dict[str, Dict[str, Dict[str, float]]] = {
        server_label: {} for server_label, _kind in FAULT_OPEN_SERVERS}
    for (server_label, policy_label), result in pairs:
        summary = _fault_summary(result)
        summary["rack_slowed"] = result.fault_counters.get(
            "faults.rack_slowed_queries", 0.0)
        data[server_label][policy_label] = summary
    sections = []
    for server_label, _kind in FAULT_OPEN_SERVERS:
        rows = _fault_rows(data[server_label],
                           ("rack_slowed", "hedges", "failovers"))
        sections.append(render_table(
            f"Rack fault, open workload ({server_label}): "
            "2 replicas/shard over 2 racks",
            ["policy", "p50 [ms]", "p99 [ms]", "tput [req/s]",
             "slowed", "hedges", "failovers"], rows))
    return ExhibitResult("fault_open",
                         "Open-workload tail latency under a rack fault",
                         "\n\n".join(sections), data)


# ---------------------------------------------------------------------------
# EWMA replica routing — latency-aware vs queue-aware under RTT asymmetry
# ---------------------------------------------------------------------------

_EWMA_POLICIES = ("primary", "least_outstanding", "ewma")


def _ewma_route_points(quick: bool, seed: int) -> Points:
    """Latency-aware (EWMA) replica routing vs least-outstanding under
    cross-rack RTT asymmetry, with span tracing attributing the gap.

    Two replicas per shard span two racks; round-robin placement puts
    exactly one replica of every shard in the app server's rack, the
    other across the spine (+0.5 ms each way).  ``least_outstanding``
    balances in-flight *counts* and so keeps paying the spine tax on
    half its sends; ``ewma`` learns each shard's near replica from the
    observed response latency and routes there.  Every point runs
    traced, so the critical-path breakdown shows the difference landing
    exactly in the ``network`` category.
    """
    duration = 1.5 if quick else 6.0
    return [(policy, ExperimentConfig(
        server="doubleface", concurrency=20, fanout=5,
        response_size=100, warmup=0.5, duration=duration, seed=seed,
        replicas_per_shard=2, racks=2, replica_policy=policy,
        cross_rack_extra_latency=0.5e-3,
        trace=True, trace_sample=0.25, trace_exemplars=3,
        keep_selector_stats=False, label=policy))
        for policy in _EWMA_POLICIES]


def _ewma_route_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    data: Dict[str, Any] = {}
    summaries: Dict[str, Any] = {}
    for label, result in pairs:
        data[label] = {
            "p50": result.percentiles[50.0],
            "p99": result.percentiles[99.0],
            "mean_rt": result.mean_rt,
            "throughput": result.throughput,
        }
        summaries[label] = result.trace_summary
    rows = [[label,
             round(1e3 * data[label]["p50"], 3),
             round(1e3 * data[label]["p99"], 3),
             round(data[label]["throughput"])]
            for label in _EWMA_POLICIES]
    text = render_table(
        "EWMA routing: cross-rack asymmetry (2 replicas over 2 racks, "
        "+0.5ms spine)",
        ["policy", "p50 [ms]", "p99 [ms]", "tput [req/s]"], rows)
    text += "\n\n" + render_breakdown(
        "EWMA routing: critical-path breakdown (mean per request)",
        summaries)
    return ExhibitResult("ewma_route", "Latency-aware replica routing",
                         text, {**data, "trace_summaries": summaries})


# ---------------------------------------------------------------------------
# Attribution hedging — per-shard learned hedge delays vs one global window
# ---------------------------------------------------------------------------

_ADAPTIVE_HEDGE_POLICIES = (
    ("retry-only", _retry()),
    ("global-p95", _p95_hedge()),
    ("attribution", _p95_hedge(hedge_policy="attribution")),
)


def _adaptive_hedge_points(quick: bool, seed: int) -> Points:
    """Per-shard attribution hedging vs the global-percentile hedge
    under a slow-shard brown-out on a heterogeneous topology.

    Two replicas per shard span two racks with a +0.5 ms spine tax
    (``cross_rack_extra_latency``), so half the shards' primary attempts
    are structurally slower than the other half's — on top of
    :data:`FAULT_SLOW_SHARDS` browning out two shards at 100x.  The
    global p95 window has to pick one delay for both shard populations;
    ``hedge_policy="attribution"`` keeps a per-(shard, replica)
    attempt-latency digest and hedges each shard at its *own* p95.
    Every point runs traced, so the live critical-path breakdown trims
    the network + selector-wait share off the learned delays, and the
    exhibit prints what each policy converged to per shard.

    The headline ``benchmarks/bench_fault_tail.py --check`` pins:
    attribution's p99 rescue over retry-only is at least the global
    policy's.
    """
    return [(label, _fault_point(
        "doubleface", policy, quick, seed,
        racks=2, cross_rack_extra_latency=0.5e-3,
        trace=True, trace_sample=0.25, trace_exemplars=3,
        label=label))
        for label, policy in _ADAPTIVE_HEDGE_POLICIES]


def _adaptive_hedge_render(pairs: Pairs, quick: bool) -> ExhibitResult:
    data: Dict[str, Any] = {}
    summaries: Dict[str, Any] = {}
    delays: Dict[str, Dict[int, float]] = {}
    for label, result in pairs:
        summary = _fault_summary(result)
        summary["hedge_clamped"] = result.fault_counters.get(
            "resilience.hedge_clamped", 0.0)
        data[label] = summary
        summaries[label] = result.trace_summary
        delays[label] = result.hedge_delays
    rows = _fault_rows(data, ("hedges", "hedge_wins", "hedge_clamped"))
    text = render_table(
        "Adaptive hedging (DoubleFaceNetty): slow-shard brown-out + "
        "cross-rack asymmetry",
        ["policy", "p50 [ms]", "p99 [ms]", "tput [req/s]", "hedges",
         "hedge wins", "clamped"], rows)
    text += "\n\n" + render_breakdown(
        "Adaptive hedging: critical-path breakdown (mean per request)",
        summaries, hedge_delays=delays)
    return ExhibitResult(
        "adaptive_hedge", "Attribution-driven per-shard hedge delays",
        text, {**data, "trace_summaries": summaries,
               "hedge_delays": delays})


#: Registry used by the CLI and the benchmark suite.
EXHIBITS: Mapping[str, Exhibit] = MappingProxyType({
    "fig04": Exhibit(_fig04_points, _fig04_render),
    "fig05": Exhibit(_fig05_points, _fig05_render),
    "fig07": Exhibit(_fig07_points, _fig07_render),
    "fig09": Exhibit(_fig09_points, _fig09_render),
    "fig13": Exhibit(_fig13_points, _fig13_render),
    "fig14": Exhibit(_fig14_points, _fig14_render),
    "fig15": Exhibit(_fig15_points, _fig15_render),
    "fig16": _FIG16,
    "fig17": _FIG17,
    "tab1": Exhibit(_tab1_points, _tab1_render),
    "tab2": Exhibit(_tab2_points, _tab2_render),
    "tab3": Exhibit(_tab3_points, _tab3_render),
    "fault_tail": Exhibit(_fault_tail_points, _fault_tail_render),
    "hedging": Exhibit(_hedging_points, _hedging_render),
    "fault_open": Exhibit(_fault_open_points, _fault_open_render),
    "ewma_route": Exhibit(_ewma_route_points, _ewma_route_render),
    "adaptive_hedge": Exhibit(_adaptive_hedge_points, _adaptive_hedge_render),
})


def _render(name: str, points: List[Tuple[Any, ExperimentConfig,
                                          ExperimentResult]],
            quick: bool, trace_sample: Optional[float],
            obs: bool) -> ExhibitResult:
    """Render one exhibit from its ``(key, config, result)`` points and
    attach the per-point trace/obs artifacts.

    Artifacts are named ``label#NNN (key)``: NNN counts the exhibit's
    traced points (trace) or all its points (obs) in declared order.
    """
    result = EXHIBITS[name].render(
        [(key, point) for key, _config, point in points], quick)
    if trace_sample is not None:
        summaries: Dict[str, Any] = {}
        flames: Dict[str, Any] = {}
        phases: Dict[str, Any] = {}
        for key, config, point in points:
            if point.trace_summary is not None:
                label = f"{config.label}#{len(summaries):03d} ({key})"
                summaries[label] = point.trace_summary
                flames[label] = point.flame
                phases[label] = point.phases
        if summaries:
            rate = f"{100 * trace_sample:g}% sampled"
            result.data.setdefault("trace_summaries", summaries)
            result.text += "\n\n" + render_breakdown(
                f"{name}: critical-path breakdown (mean per request, "
                f"{rate})", summaries)
            result.data.setdefault("flames", flames)
            result.data.setdefault("trace_phases", phases)
            result.text += "\n\n" + render_flame(
                f"{name}: heaviest flame paths (self time, {rate})", flames)
    if obs:
        snapshots = {}
        for index, (key, config, point) in enumerate(points):
            label = f"{config.label}#{index:03d} ({key})"
            snapshots[label] = prometheus_snapshot(point, label=label)
        result.data.setdefault("prometheus", snapshots)
    return result


def run_exhibits(names: Iterable[str], quick: bool = True, seed: int = 42,
                 jobs: Optional[int] = 1,
                 trace: bool = False, trace_sample: float = 0.01,
                 trace_exemplars: int = 3,
                 obs: bool = False,
                 obs_period: float = DEFAULT_OBS_PERIOD,
                 on_result: Optional[Callable[[str, ExhibitResult], None]]
                 = None) -> Dict[str, ExhibitResult]:
    """Run exhibits by name; results keyed by name in the order given.

    Every exhibit's points go through one executor: ``jobs=1`` runs
    them in-process, N fans them over N worker processes, 0/None uses
    one worker per CPU.  The pool takes the points heaviest first
    whatever exhibit declared them, so the long tail-window points
    overlap with the cheap table grids.  Results are identical for any
    ``jobs``, and each exhibit's result equals running it alone.
    ``on_result(name, result)`` is called as each exhibit completes, in
    completion order.

    ``trace=True`` runs every point with span tracing at
    ``trace_sample`` probability (overriding any rate an exhibit sets):
    the measured numbers are unchanged (tracing is observation-only),
    critical-path breakdown and flame tables are appended to the text,
    and the per-point summaries / flame aggregations / phase windows
    land in ``result.data["trace_summaries"]`` / ``["flames"]`` /
    ``["trace_phases"]`` (feed them to
    :func:`repro.trace.write_chrome_trace` /
    :func:`repro.trace.write_flame` for timelines and flame graphs).

    ``obs=True`` runs every point with the telemetry ticker sampling
    gauges each ``obs_period`` simulated seconds (also
    observation-only); per-point Prometheus snapshots land in
    ``result.data["prometheus"]``.

    A point that raises fails the whole run at once with a
    ``RuntimeError`` naming its exhibit, the point's error chained.
    """
    names = list(dict.fromkeys(names))
    for name in names:
        if name not in EXHIBITS:
            raise ValueError(f"unknown exhibit {name!r}; choose from "
                             f"{sorted(EXHIBITS)}")
    overlay: Dict[str, Any] = {}
    if trace:
        overlay.update(trace=True, trace_sample=trace_sample,
                       trace_exemplars=trace_exemplars)
    if obs:
        overlay.update(obs=True, obs_period=obs_period)
    owners: List[str] = []
    keys: List[Any] = []
    configs: List[ExperimentConfig] = []
    for name in names:
        for key, config in EXHIBITS[name].points(quick, seed):
            owners.append(name)
            keys.append(key)
            configs.append(replace(config, **overlay))
    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    pending = {name: owners.count(name) for name in names}
    rendered: Dict[str, ExhibitResult] = {}
    with closing(iter_experiments(configs, jobs=jobs)) as outcomes:
        for position, outcome in outcomes:
            name = owners[position]
            if isinstance(outcome, BaseException):
                raise RuntimeError(f"exhibit {name!r} failed") from outcome
            results[position] = outcome
            pending[name] -= 1
            if pending[name]:
                continue
            mine = [i for i, owner in enumerate(owners) if owner == name]
            rendered[name] = _render(
                name, [(keys[i], configs[i], results[i]) for i in mine],
                quick, trace_sample if trace else None, obs)
            for i in mine:
                results[i] = None
            if on_result is not None:
                on_result(name, rendered[name])
    return {name: rendered[name] for name in names}
