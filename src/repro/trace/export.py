"""Trace exporters: columnar summary + Chrome ``trace_event`` JSON.

:func:`build_summary` folds a finished :class:`Tracer` into a plain
JSON-able dict (per-class counts, additive category sums, and the
slowest exemplar traces with their full span lists).  The summary is
what rides on :class:`ExperimentResult` and therefore must survive the
pooled result transport float-for-float:
:func:`summary_columns` splits it into a small structure header plus
one flat float column, and :func:`summary_from_columns` is its exact
inverse (``decode(encode(s)) == s``).

:func:`chrome_trace` renders exemplar span trees as Chrome
``trace_event`` JSON (the ``{"traceEvents": [...]}`` object format,
``ph: "X"`` complete events, microsecond timestamps) for
``chrome://tracing`` / Perfetto timeline viewing.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from .critical_path import CATEGORIES
from .spans import Tracer

__all__ = ["build_summary", "summary_columns", "summary_from_columns",
           "chrome_trace", "write_chrome_trace"]

#: Scalar fields of one exemplar, in column order (breakdown and spans
#: follow them).
_EXEMPLAR_SCALARS = ("rt", "start", "request_id", "crit_seq",
                     "crit_attempt", "crit_shard", "crit_replica",
                     "attempts")

#: Floats per span record.
_SPAN_WIDTH = 9


def build_summary(tracer: Tracer) -> Dict[str, Any]:
    """Fold the tracer's window aggregates into a JSON-able dict."""
    classes: Dict[str, Any] = {}
    for klass in sorted(tracer.classes()):
        agg = tracer.classes()[klass]
        exemplars = []
        for trace in tracer.exemplars(klass):
            exemplars.append({
                "rt": trace.rt,
                "start": trace.start,
                "request_id": trace.request_id,
                "crit_seq": trace.crit_seq,
                "crit_attempt": trace.crit_attempt,
                "crit_shard": trace.crit_shard,
                "crit_replica": trace.crit_replica,
                "attempts": trace.attempts,
                "breakdown": dict(trace.breakdown or {}),
                "spans": [list(span) for span in trace.spans],
            })
        classes[klass] = {
            "count": agg.count,
            "rt_sum": agg.rt_sum,
            "breakdown": dict(agg.sums),
            "exemplars": exemplars,
        }
    return {
        "sample_rate": tracer.sample_rate,
        "sampled": tracer.sampled,
        "kinds": [kind.name for kind in tracer.kinds],
        "categories": list(CATEGORIES),
        "classes": classes,
    }


# ---------------------------------------------------------------------------
# Columnar transport form
# ---------------------------------------------------------------------------

def summary_columns(summary: Dict[str, Any]
                    ) -> Tuple[Dict[str, Any], List[float]]:
    """Split a summary into ``(structure, floats)``.

    *structure* holds everything non-numeric (names, shapes) and is
    small/O(classes); *floats* is one flat column that rides the
    result transport's packed float buffer.
    """
    structure = {
        "sample_rate": summary["sample_rate"],
        "sampled": summary["sampled"],
        "kinds": list(summary["kinds"]),
        "classes": [
            (klass,
             [len(exemplar["spans"])
              for exemplar in entry["exemplars"]])
            for klass, entry in summary["classes"].items()
        ],
    }
    floats: List[float] = []
    for _klass, entry in summary["classes"].items():
        floats.append(entry["count"])
        floats.append(entry["rt_sum"])
        breakdown = entry["breakdown"]
        for category in CATEGORIES:
            floats.append(breakdown[category])
        for exemplar in entry["exemplars"]:
            for name in _EXEMPLAR_SCALARS:
                floats.append(exemplar[name])
            ex_breakdown = exemplar["breakdown"]
            for category in CATEGORIES:
                floats.append(ex_breakdown[category])
            for span in exemplar["spans"]:
                floats.extend(span)
    return structure, floats


def summary_from_columns(structure: Dict[str, Any],
                         floats: List[float]) -> Dict[str, Any]:
    """Exact inverse of :func:`summary_columns`."""
    classes: Dict[str, Any] = {}
    pos = 0
    for klass, span_counts in structure["classes"]:
        count = floats[pos]
        rt_sum = floats[pos + 1]
        pos += 2
        breakdown = {category: floats[pos + i]
                     for i, category in enumerate(CATEGORIES)}
        pos += len(CATEGORIES)
        exemplars = []
        for n_spans in span_counts:
            exemplar: Dict[str, Any] = {}
            for name in _EXEMPLAR_SCALARS:
                exemplar[name] = floats[pos]
                pos += 1
            exemplar["breakdown"] = {
                category: floats[pos + i]
                for i, category in enumerate(CATEGORIES)}
            pos += len(CATEGORIES)
            spans = []
            for _ in range(n_spans):
                spans.append(list(floats[pos:pos + _SPAN_WIDTH]))
                pos += _SPAN_WIDTH
            exemplar["spans"] = spans
            exemplars.append(exemplar)
        classes[klass] = {"count": count, "rt_sum": rt_sum,
                          "breakdown": breakdown, "exemplars": exemplars}
    return {
        "sample_rate": structure["sample_rate"],
        "sampled": structure["sampled"],
        "kinds": list(structure["kinds"]),
        "categories": list(CATEGORIES),
        "classes": classes,
    }


# ---------------------------------------------------------------------------
# Chrome trace_event JSON
# ---------------------------------------------------------------------------

def chrome_trace(summaries: Dict[str, Dict[str, Any]],
                 phases: Optional[Dict[str, List[Any]]] = None
                 ) -> Dict[str, Any]:
    """Render exemplar traces as a Chrome ``trace_event`` object.

    *summaries* maps a label (exhibit point key) to a trace summary.
    Each (label, class) pair becomes one ``pid``; each exemplar within
    it one ``tid``; spans become ``ph: "X"`` complete events with
    micro-second ``ts``/``dur``.  Point events (retry/hedge/failed)
    are emitted as instant events (``ph: "i"``).

    *phases* optionally maps the same labels to workload-phase windows
    ``[(name, start, end), ...]`` (warmup / measurement window / fault
    windows, see ``ExperimentResult.phases``).  Each label's phases
    become one extra ``pid`` whose track holds a ``phase:<name>``
    complete event per window plus a globally-scoped instant
    (``"s": "g"``) at the window start, so phase boundaries draw as
    full-height markers across every exemplar track in Perfetto.
    """
    events: List[Dict[str, Any]] = []
    phases = phases or {}
    pid = 0
    for label in sorted(set(summaries) | set(phases)):
        windows = phases.get(label)
        if windows:
            pid += 1
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"{label} / phases"}})
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": 1,
                "args": {"name": "workload phases"}})
            for phase_name, start, end in windows:
                args = {"phase": phase_name, "start_ms": 1e3 * start,
                        "end_ms": 1e3 * end}
                if end > start:
                    events.append({
                        "name": f"phase:{phase_name}", "ph": "X",
                        "pid": pid, "tid": 1, "ts": 1e6 * start,
                        "dur": 1e6 * (end - start), "args": args})
                events.append({
                    "name": f"phase:{phase_name}", "ph": "i", "pid": pid,
                    "tid": 1, "ts": 1e6 * start, "s": "g", "args": args})
        if label not in summaries:
            continue
        summary = summaries[label]
        kinds = summary["kinds"]
        for klass in sorted(summary["classes"]):
            entry = summary["classes"][klass]
            pid += 1
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"{label} / {klass}"}})
            for tid, exemplar in enumerate(entry["exemplars"], start=1):
                events.append({
                    "name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tid,
                    "args": {"name": (f"exemplar rt="
                                      f"{1e3 * exemplar['rt']:.2f}ms")}})
                for span in exemplar["spans"]:
                    kind, start, end, seq, attempt, work, shard, replica, \
                        flags = span
                    name = kinds[int(kind)]
                    args = {"seq": int(seq), "attempt": int(attempt),
                            "shard": int(shard), "replica": int(replica)}
                    if work:
                        args["work_us"] = 1e6 * work
                    if flags:
                        args["flags"] = int(flags)
                    if end > start:
                        events.append({
                            "name": name, "ph": "X", "pid": pid,
                            "tid": tid, "ts": 1e6 * start,
                            "dur": 1e6 * (end - start), "args": args})
                    else:
                        events.append({
                            "name": name, "ph": "i", "pid": pid,
                            "tid": tid, "ts": 1e6 * start, "s": "t",
                            "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str,
                       summaries: Dict[str, Dict[str, Any]],
                       phases: Optional[Dict[str, List[Any]]] = None
                       ) -> None:
    """Write :func:`chrome_trace` output as JSON to *path*, creating
    missing parent directories."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(summaries, phases=phases), handle, indent=1)
        handle.write("\n")
