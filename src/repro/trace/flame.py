"""Cross-request span-flame aggregation.

A single exemplar trace answers "where did *this* request spend its
time"; the flame fold answers "where did the *whole run* spend its
time, and how does that change when a fault window opens".  The
:class:`FlameAccumulator` streams every sampled request's span tree
into interned call-path nodes — folding happens inside
``Tracer.finish`` because the tracer only keeps top-K exemplar traces,
so the fold is the one place the full sampled population is visible.

Fold rules (see DESIGN.md "Observability"):

- Paths are tuples of frame indices into :data:`FRAME_NAMES`
  (the span-kind names plus one structural ``subquery`` grouping
  frame).  Request-level spans fold under ``root``; sub-query spans
  under ``root;subquery``; retry attempts under ``root;subquery;retry``
  and hedged duplicates under ``root;subquery;hedge``.
- ``self`` weight of a path is the exact float sum of the durations of
  every span folded at it.  Spans are siblings, never re-parented, so
  no subtraction happens and every self weight is ``>= 0``.
- ``total`` weight (computed at export) is self plus the self of every
  strictly deeper path.  Sub-queries run concurrently, so sibling
  totals can legitimately exceed the root's wall time — the fold sums
  span time, not wall time (like an off-CPU flame graph summed across
  threads).
- Structural frames (``root``, ``subquery``) and point markers
  (retry/hedge/failed) carry counts but zero self weight.
- Tables are keyed per ``(request class, phase)``, where *phase* is
  stamped by the tracer's phase hook (warmup/measure plus the fault
  families active at request start).

Everything is a pure function of the seed: the fold visits traces in
finish order and spans in record order, both deterministic, so the
float sums are bit-identical across ``--jobs`` settings.

Exporters: :func:`collapsed_stacks` (flamegraph.pl collapsed-stack
text), :func:`speedscope_doc` (speedscope JSON), and the
:func:`flame_columns` / :func:`flame_from_columns` codec that rides
the pooled result transport.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from .spans import (KIND_NAMES, K_FAILED, K_HEDGE, K_RETRY, K_ROOT, Trace)

__all__ = ["FlameAccumulator", "FRAME_NAMES", "F_SUBQUERY", "build_flame",
           "merge_flames", "collapsed_stacks", "speedscope_doc",
           "flame_columns", "flame_from_columns", "write_flame"]

#: Flame frame vocabulary: every span kind plus the structural
#: ``subquery`` grouping frame.  Paths store indices into this tuple.
FRAME_NAMES: Tuple[str, ...] = KIND_NAMES + ("subquery",)

#: Index of the structural sub-query grouping frame.
F_SUBQUERY = len(KIND_NAMES)

#: Retry/hedge attempt tag for hedged duplicates (mirrors
#: :data:`repro.faults.HEDGE_ATTEMPT`; re-declared to keep the trace
#: package free of a faults import).
_HEDGE_ATTEMPT = -1

#: Floats per path row in the columnar transport form.
_PATH_WIDTH = 3  # count, self, total


class FlameAccumulator:
    """Streaming fold of sampled span trees into call-path nodes.

    ``_tables`` maps ``(klass, phase)`` to ``{path: [count, self]}``;
    paths are tuples of :data:`FRAME_NAMES` indices.  The accumulator
    never stores traces — one dict update per span keeps the fold
    cheap enough to run at every ``Tracer.finish``.
    """

    __slots__ = ("_tables",)

    def __init__(self) -> None:
        self._tables: Dict[Tuple[str, str],
                           Dict[Tuple[int, ...], List[float]]] = {}

    def fold(self, trace: Trace, phase: str) -> None:
        """Fold one finished trace into the (class, phase) table."""
        table = self._tables.get((trace.klass, phase))
        if table is None:
            table = self._tables[(trace.klass, phase)] = {}
        for kind, start, end, seq, attempt, _work, _shard, _replica, \
                _flags in trace.spans:
            if kind == K_ROOT:
                path = (K_ROOT,)
                weight = 0.0  # structural: duration lives in the leaves
            elif kind == K_RETRY or kind == K_HEDGE or kind == K_FAILED:
                # Point markers: count-only leaves under the sub-query
                # frame (they have zero duration by construction).
                path = (K_ROOT, F_SUBQUERY, kind)
                weight = 0.0
            elif seq < 0:
                # Request-level span (parse, assemble, client-side
                # network legs of the critical sub-query, ...).
                path = (K_ROOT, kind)
                weight = end - start
            elif attempt == 0:
                path = (K_ROOT, F_SUBQUERY, kind)
                weight = end - start
            elif attempt == _HEDGE_ATTEMPT:
                path = (K_ROOT, F_SUBQUERY, K_HEDGE, kind)
                weight = end - start
            else:
                path = (K_ROOT, F_SUBQUERY, K_RETRY, kind)
                weight = end - start
            node = table.get(path)
            if node is None:
                table[path] = [1.0, weight]
            else:
                node[0] += 1.0
                node[1] += weight

    def tables(self) -> Dict[Tuple[str, str],
                             Dict[Tuple[int, ...], List[float]]]:
        return self._tables

    def __bool__(self) -> bool:
        return bool(self._tables)


def build_flame(acc: FlameAccumulator) -> Dict[str, Any]:
    """Fold an accumulator into the canonical JSON-able flame summary.

    Shape::

        {"frames": [name, ...],
         "tables": {klass: {phase: {"paths": [[i, ...], ...],
                                    "count": [...], "self": [...],
                                    "total": [...]}}}}

    Keys and paths are sorted, so the summary is canonical regardless
    of fold insertion order; ``total`` is self plus the self of every
    strictly deeper path.
    """
    tables: Dict[str, Dict[str, Any]] = {}
    by_class: Dict[str, Dict[str, Dict[Tuple[int, ...], List[float]]]] = {}
    for (klass, phase), table in acc.tables().items():
        by_class.setdefault(klass, {})[phase] = table
    for klass in sorted(by_class):
        tables[klass] = {}
        for phase in sorted(by_class[klass]):
            table = by_class[klass][phase]
            paths = sorted(table)
            selves = [table[path][1] for path in paths]
            totals = list(selves)
            # Strict-prefix containment over the sorted path list:
            # every deeper path's self rolls up into each ancestor.
            for i, path in enumerate(paths):
                depth = len(path)
                for j in range(i + 1, len(paths)):
                    deeper = paths[j]
                    if deeper[:depth] != path:
                        break
                    totals[i] += selves[j]
            tables[klass][phase] = {
                "paths": [list(path) for path in paths],
                "count": [table[path][0] for path in paths],
                "self": selves,
                "total": totals,
            }
    return {"frames": list(FRAME_NAMES), "tables": tables}


def merge_flames(flames: Dict[str, Optional[Dict[str, Any]]]
                 ) -> Dict[str, Dict[str, Any]]:
    """Drop ``None`` entries (untraced points) from a label → flame
    map, preserving order."""
    return {label: flame for label, flame in flames.items()
            if flame is not None}


# ---------------------------------------------------------------------------
# Columnar transport form
# ---------------------------------------------------------------------------

def flame_columns(flame: Dict[str, Any]
                  ) -> Tuple[Dict[str, Any], List[float]]:
    """Split a flame summary into ``(structure, floats)`` for the
    pooled result transport (same contract as
    :func:`repro.trace.export.summary_columns`)."""
    structure = {
        "frames": list(flame["frames"]),
        "tables": [
            (klass, [(phase, [list(path) for path in entry["paths"]])
                     for phase, entry in phases.items()])
            for klass, phases in flame["tables"].items()
        ],
    }
    floats: List[float] = []
    for _klass, phases in flame["tables"].items():
        for _phase, entry in phases.items():
            for count, self_w, total_w in zip(entry["count"], entry["self"],
                                              entry["total"]):
                floats.append(count)
                floats.append(self_w)
                floats.append(total_w)
    return structure, floats


def flame_from_columns(structure: Dict[str, Any],
                       floats: List[float]) -> Dict[str, Any]:
    """Exact inverse of :func:`flame_columns`."""
    tables: Dict[str, Dict[str, Any]] = {}
    pos = 0
    for klass, phases in structure["tables"]:
        tables[klass] = {}
        for phase, paths in phases:
            counts, selves, totals = [], [], []
            for _ in paths:
                counts.append(floats[pos])
                selves.append(floats[pos + 1])
                totals.append(floats[pos + 2])
                pos += _PATH_WIDTH
            tables[klass][phase] = {
                "paths": [list(path) for path in paths],
                "count": counts, "self": selves, "total": totals,
            }
    return {"frames": list(structure["frames"]), "tables": tables}


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def collapsed_stacks(flames: Dict[str, Dict[str, Any]]) -> str:
    """flamegraph.pl-compatible collapsed-stack text.

    One line per non-empty path: semicolon-joined frames (label, class,
    phase, then the span frames) and the self weight in integer
    microseconds.  Zero-weight paths (structural frames, point
    markers) are prefix-only and therefore omitted, as the collapsed
    format requires positive sample counts.
    """
    lines: List[str] = []
    for label in sorted(flames):
        flame = flames[label]
        frames = flame["frames"]
        for klass in sorted(flame["tables"]):
            for phase in sorted(flame["tables"][klass]):
                entry = flame["tables"][klass][phase]
                for path, self_w in zip(entry["paths"], entry["self"]):
                    micros = int(round(1e6 * self_w))
                    if micros <= 0:
                        continue
                    stack = ";".join([label, klass, phase]
                                     + [frames[i] for i in path])
                    lines.append(f"{stack} {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


#: The speedscope file-format schema URL (the viewer keys on it).
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def speedscope_doc(flames: Dict[str, Dict[str, Any]],
                   name: str = "repro flame") -> Dict[str, Any]:
    """Speedscope JSON: one ``sampled`` profile per (label, class,
    phase) with each aggregated path as a weighted stack.

    Weights are self seconds; zero-weight paths are dropped (they are
    visible as prefixes of deeper stacks).  Frame indices reference
    one shared :data:`FRAME_NAMES` table, so every profile shares the
    interned frame vocabulary.
    """
    shared_frames = [{"name": frame} for frame in FRAME_NAMES]
    profiles: List[Dict[str, Any]] = []
    for label in sorted(flames):
        flame = flames[label]
        for klass in sorted(flame["tables"]):
            for phase in sorted(flame["tables"][klass]):
                entry = flame["tables"][klass][phase]
                samples, weights = [], []
                for path, self_w in zip(entry["paths"], entry["self"]):
                    if self_w <= 0.0:
                        continue
                    samples.append(list(path))
                    weights.append(self_w)
                if not samples:
                    continue
                profiles.append({
                    "type": "sampled",
                    "name": f"{label} / {klass} / {phase}",
                    "unit": "seconds",
                    "startValue": 0.0,
                    "endValue": sum(weights),
                    "samples": samples,
                    "weights": weights,
                })
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "shared": {"frames": shared_frames},
        "profiles": profiles,
        "exporter": "repro.trace.flame",
        "name": name,
    }


def write_flame(path: str, flames: Dict[str, Dict[str, Any]]) -> str:
    """Write *flames* to *path*, creating missing parent directories.

    ``.json`` paths get a speedscope document (open at
    https://www.speedscope.app); anything else gets collapsed-stack
    text for flamegraph.pl / inferno.  Returns the format written
    (``"speedscope"`` or ``"collapsed"``).
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if path.endswith(".json"):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(speedscope_doc(flames), handle, indent=1)
            handle.write("\n")
        return "speedscope"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(collapsed_stacks(flames))
    return "collapsed"
