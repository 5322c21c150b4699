"""Columnar result codec for the parallel experiment runner.

Every pooled point hands its :class:`ExperimentResult` back to the
parent through the pool's result pipe.  Rather than pickling the whole
object graph, a worker splits the result into:

- a **header**: a small dict holding the config, the column layout
  (key lists, section lengths), and the few irregular fields
  (``selector_stats``, phases); pickled, but tiny and O(1) in the
  sample count; and
- packed **float columns**: one flat ``float64`` buffer concatenating
  the scalar row, the percentile tables (overall and per-class), the
  CPU-share row, the fault counters, and the (time, value) sample
  columns that :mod:`repro.sim.metrics` already collects columnar.

The worker ships the pickled header and the raw column bytes inline
through the pipe; the parent rebuilds the result with
:func:`decode_result`.  ``jobs=1`` uses no codec at all: results never
leave the process.

``decode_result(encode_result(r)...)`` is an exact identity — every
float crosses as its 8-byte representation and every dict preserves
insertion order — so pooled and serial runs stay byte-identical.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Tuple

from ..trace import (flame_columns, flame_from_columns, summary_columns,
                     summary_from_columns)
from .config import ExperimentResult

__all__ = ["encode_result", "decode_result"]

#: Scalar result fields packed, in this order, at the head of the
#: column buffer.
SCALAR_FIELDS = ("throughput", "mean_rt", "cpu_utilization",
                 "ctx_switches_per_sec", "avg_running_threads",
                 "selects_per_sec", "select_cpu_share", "pool_spawns",
                 "completed", "window")

_ITEMSIZE = array("d").itemsize  # 8: one float64 per column cell


# ---------------------------------------------------------------------------
# Encode / decode
# ---------------------------------------------------------------------------

def encode_result(result: ExperimentResult) -> Tuple[Dict[str, Any], array]:
    """Flatten *result* into ``(header, columns)``.

    The header is a small picklable dict (config, key lists, section
    lengths, selector stats); ``columns`` is one flat ``array('d')``
    ready to ship as raw bytes.
    """
    columns = array("d", (getattr(result, name) for name in SCALAR_FIELDS))
    qs = tuple(result.percentiles)
    columns.extend(result.percentiles.values())
    classes = []
    for klass, table in result.class_percentiles.items():
        classes.append((klass, tuple(table)))
        columns.extend(table.values())
    share_cats = tuple(result.cpu_shares)
    columns.extend(result.cpu_shares.values())
    fault_names = tuple(result.fault_counters)
    columns.extend(result.fault_counters.values())
    hedge_shards = tuple(result.hedge_delays)
    columns.extend(result.hedge_delays.values())
    n_thread = len(result.thread_times)
    columns.extend(result.thread_times)
    columns.extend(result.thread_values)
    n_latency = len(result.latency_times)
    columns.extend(result.latency_times)
    columns.extend(result.latency_values)
    trace_structure = None
    n_trace = 0
    if result.trace_summary is not None:
        # The summary splits into a tiny structure header + one float
        # column that rides the same buffer as everything else.
        trace_structure, trace_floats = summary_columns(result.trace_summary)
        n_trace = len(trace_floats)
        columns.extend(trace_floats)
    obs_names = result.obs_names
    n_obs = len(result.obs_times)
    if obs_names:
        # Telemetry: the shared time column then each gauge column,
        # n_obs cells apiece.
        columns.extend(result.obs_times)
        for column in result.obs_values:
            columns.extend(column)
    flame_structure = None
    n_flame = 0
    if result.flame is not None:
        # Same split as the trace summary: path/table structure in the
        # header, count/self/total weights as floats.
        flame_structure, flame_floats = flame_columns(result.flame)
        n_flame = len(flame_floats)
        columns.extend(flame_floats)
    header = {
        "config": result.config,
        "qs": qs,
        "classes": classes,
        "share_cats": share_cats,
        "fault_names": fault_names,
        "hedge_shards": hedge_shards,
        "n_thread": n_thread,
        "n_latency": n_latency,
        "selector_stats": result.selector_stats,
        "trace": trace_structure,
        "n_trace": n_trace,
        "obs_names": obs_names,
        "n_obs": n_obs,
        "flame": flame_structure,
        "n_flame": n_flame,
        # Phases are a handful of (name, start, end) tuples: they ride
        # the pickled header (pickle is float-exact).
        "phases": result.phases,
        "n_columns": len(columns),
    }
    return header, columns


def _take(view: memoryview, lo: int, n: int) -> array:
    """Copy *n* float64 cells starting at *lo* out of *view* into a
    fresh column (one memcpy)."""
    column = array("d")
    column.frombytes(view[lo * _ITEMSIZE:(lo + n) * _ITEMSIZE])
    return column


def decode_result(header: Dict[str, Any], buffer) -> ExperimentResult:
    """Rebuild the exact :class:`ExperimentResult` from a header and
    the raw column bytes (any buffer-protocol object: the ``bytes`` a
    worker shipped, or the ``array`` itself).
    """
    view = memoryview(buffer).cast("B")
    n_columns = header["n_columns"]
    if len(view) < n_columns * _ITEMSIZE:
        raise ValueError(
            f"column buffer too short: need {n_columns * _ITEMSIZE} bytes, "
            f"got {len(view)}")
    cells = view[:n_columns * _ITEMSIZE].cast("d")
    pos = len(SCALAR_FIELDS)
    scalars = dict(zip(SCALAR_FIELDS, cells[:pos]))
    qs = header["qs"]
    percentiles = dict(zip(qs, cells[pos:pos + len(qs)]))
    pos += len(qs)
    class_percentiles: Dict[str, Dict[float, float]] = {}
    for klass, class_qs in header["classes"]:
        class_percentiles[klass] = dict(
            zip(class_qs, cells[pos:pos + len(class_qs)]))
        pos += len(class_qs)
    share_cats = header["share_cats"]
    cpu_shares = dict(zip(share_cats, cells[pos:pos + len(share_cats)]))
    pos += len(share_cats)
    fault_names = header["fault_names"]
    fault_counters = dict(zip(fault_names, cells[pos:pos + len(fault_names)]))
    pos += len(fault_names)
    hedge_shards = header["hedge_shards"]
    hedge_delays = dict(zip(hedge_shards,
                            cells[pos:pos + len(hedge_shards)]))
    pos += len(hedge_shards)
    n_thread = header["n_thread"]
    thread_times = _take(view, pos, n_thread)
    thread_values = _take(view, pos + n_thread, n_thread)
    pos += 2 * n_thread
    n_latency = header["n_latency"]
    latency_times = _take(view, pos, n_latency)
    latency_values = _take(view, pos + n_latency, n_latency)
    pos += 2 * n_latency
    trace_summary = None
    if header["trace"] is not None:
        trace_summary = summary_from_columns(
            header["trace"], _take(view, pos, header["n_trace"]))
    pos += header["n_trace"]
    obs_names = tuple(header["obs_names"])
    n_obs = header["n_obs"]
    obs_times, obs_values = array("d"), []
    if obs_names:
        obs_times = _take(view, pos, n_obs)
        pos += n_obs
        for _ in obs_names:
            obs_values.append(_take(view, pos, n_obs))
            pos += n_obs
    flame = None
    if header["flame"] is not None:
        flame = flame_from_columns(
            header["flame"], _take(view, pos, header["n_flame"]))
        pos += header["n_flame"]
    return ExperimentResult(
        config=header["config"],
        percentiles=percentiles,
        class_percentiles=class_percentiles,
        cpu_shares=cpu_shares,
        selector_stats=header["selector_stats"],
        thread_times=thread_times,
        thread_values=thread_values,
        latency_times=latency_times,
        latency_values=latency_values,
        fault_counters=fault_counters,
        hedge_delays=hedge_delays,
        trace_summary=trace_summary,
        obs_names=obs_names,
        obs_times=obs_times,
        obs_values=obs_values,
        phases=[tuple(p) for p in header["phases"]],
        flame=flame,
        **scalars,
    )
