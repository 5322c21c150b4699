"""Schema validation for every trace/observability artifact.

Importable checks for the files the exporters write, shared by the CLI
shim (``scripts/check_trace_schema.py``), CI, and the unit tests:

- :func:`check_chrome_trace` — Chrome ``trace_event`` JSON from
  ``--trace-out`` (span kinds, metadata naming, instant scopes, and
  the ``phase:*`` workload-phase annotation events);
- :func:`check_collapsed` — flamegraph.pl collapsed-stack text from
  ``--flame-out``;
- :func:`check_prometheus` — the ``--prom-out`` text snapshot.

Every check raises :class:`SchemaError` with a one-line message on the
first violation and returns a stats dict on success.
:func:`check_path` sniffs the format from the file content and
dispatches, returning a human-readable summary line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from .flame import FRAME_NAMES
from .spans import KIND_NAMES

__all__ = ["SchemaError", "check_chrome_trace", "check_collapsed",
           "check_prometheus", "check_path", "main"]

_META_NAMES = {"process_name", "thread_name"}


class SchemaError(ValueError):
    """An exported artifact violates its exporter's schema contract."""


def _fail(message: str) -> None:
    raise SchemaError(message)


# ---------------------------------------------------------------------------
# Chrome trace_event JSON
# ---------------------------------------------------------------------------

def check_chrome_trace(doc: Any) -> Dict[str, int]:
    """Validate a Chrome ``trace_event`` document (parsed JSON).

    Checks the invariants the exporter guarantees (and that
    chrome://tracing / Perfetto rely on to render anything at all):

    - top level is ``{"traceEvents": [...], "displayTimeUnit": "ms"}``;
    - every event has ``name``/``ph``/``pid``/``tid`` with ``ph`` one
      of ``M`` (metadata), ``X`` (complete span), ``i`` (instant);
    - ``X`` events carry non-negative ``ts`` and positive ``dur``;
    - span-kind instants carry thread scope (``"s": "t"``); workload
      phase annotations (names ``phase:*``) carry global scope
      (``"s": "g"``) and an ``args.phase`` tag;
    - every (pid, tid) with events is named by ``M`` metadata;
    - span names are known span kinds (or ``phase:*`` annotations),
      and at least one real span exists.
    """
    if not isinstance(doc, dict):
        _fail("top level must be a JSON object")
    if doc.get("displayTimeUnit") != "ms":
        _fail(f"displayTimeUnit must be 'ms', got "
              f"{doc.get('displayTimeUnit')!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        _fail("traceEvents must be a non-empty list")

    named_processes = set()
    named_threads = set()
    spans = 0
    instants = 0
    phase_marks = 0
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            _fail(f"{where} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                _fail(f"{where} missing {key!r}")
        ph = event["ph"]
        if ph == "M":
            if event["name"] not in _META_NAMES:
                _fail(f"{where}: unknown metadata event {event['name']!r}")
            if not event.get("args", {}).get("name"):
                _fail(f"{where}: metadata event without args.name")
            if event["name"] == "process_name":
                named_processes.add(event["pid"])
            else:
                named_threads.add((event["pid"], event["tid"]))
            continue
        if ph not in ("X", "i"):
            _fail(f"{where}: unexpected phase {ph!r}")
        name = event["name"]
        is_phase_mark = name.startswith("phase:")
        if not is_phase_mark and name not in KIND_NAMES:
            _fail(f"{where}: unknown span kind {name!r}")
        if is_phase_mark and not event.get("args", {}).get("phase"):
            _fail(f"{where}: phase annotation without args.phase")
        if not isinstance(event.get("ts"), (int, float)) or event["ts"] < 0:
            _fail(f"{where}: bad ts {event.get('ts')!r}")
        if ph == "X":
            spans += 1
            if not isinstance(event.get("dur"), (int, float)) \
                    or event["dur"] <= 0:
                _fail(f"{where}: X event needs positive dur, got "
                      f"{event.get('dur')!r}")
        else:
            instants += 1
            want_scope = "g" if is_phase_mark else "t"
            if event.get("s") != want_scope:
                _fail(f"{where}: instant event needs scope "
                      f"'s': {want_scope!r}, got {event.get('s')!r}")
        if is_phase_mark:
            phase_marks += 1
        if event["pid"] not in named_processes:
            _fail(f"{where}: pid {event['pid']} has no process_name "
                  f"metadata")
        if (event["pid"], event["tid"]) not in named_threads:
            _fail(f"{where}: tid {event['tid']} (pid {event['pid']}) has "
                  f"no thread_name metadata")
    if spans == 0:
        _fail("no complete (ph='X') span events at all")
    return {"events": len(events), "processes": len(named_processes),
            "threads": len(named_threads), "spans": spans,
            "instants": instants, "phase_marks": phase_marks}


# ---------------------------------------------------------------------------
# Flame outputs
# ---------------------------------------------------------------------------

def check_collapsed(text: str) -> Dict[str, int]:
    """Validate flamegraph.pl collapsed-stack text: each line is
    ``frame;frame;... <positive int>`` with non-empty frames, and at
    least one line exists."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        _fail("collapsed-stack output has no samples")
    total = 0
    for i, line in enumerate(lines):
        where = f"line {i + 1}"
        stack, _, weight = line.rpartition(" ")
        if not stack:
            _fail(f"{where}: no stack before the weight")
        try:
            value = int(weight)
        except ValueError:
            _fail(f"{where}: weight {weight!r} is not an integer")
        if value <= 0:
            _fail(f"{where}: weight must be positive, got {value}")
        frames = stack.split(";")
        if any(not frame for frame in frames):
            _fail(f"{where}: empty frame in stack {stack!r}")
        if frames[-1] not in FRAME_NAMES:
            _fail(f"{where}: leaf frame {frames[-1]!r} is not a span "
                  f"frame")
        total += value
    return {"lines": len(lines), "total_weight": total}


# ---------------------------------------------------------------------------
# Prometheus text snapshot
# ---------------------------------------------------------------------------

def check_prometheus(text: str) -> Dict[str, int]:
    """Validate a Prometheus text-exposition snapshot: every sample
    line is ``name{labels} value`` with a parseable float value, and
    every metric family is introduced by ``# TYPE``."""
    typed = set()
    samples = 0
    for i, line in enumerate(text.splitlines()):
        where = f"line {i + 1}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        body, _, value = line.rpartition(" ")
        if not body:
            _fail(f"{where}: no metric name before the value")
        try:
            float(value)
        except ValueError:
            _fail(f"{where}: value {value!r} is not a float")
        name = body.split("{", 1)[0]
        if not name.replace("_", "").replace(":", "").isalnum():
            _fail(f"{where}: bad metric name {name!r}")
        if name not in typed:
            _fail(f"{where}: metric {name!r} has no # TYPE header")
        samples += 1
    if samples == 0:
        _fail("no metric samples at all")
    return {"samples": samples, "families": len(typed)}


# ---------------------------------------------------------------------------
# Dispatch + CLI
# ---------------------------------------------------------------------------

def check_path(path: str) -> str:
    """Sniff the artifact format at *path*, validate it, and return a
    one-line summary.  Raises :class:`SchemaError` when invalid."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError as exc:
            _fail(f"{path} is not valid JSON: {exc}")
        if "traceEvents" in doc:
            stats = check_chrome_trace(doc)
            return (f"trace schema OK: {stats['events']} events "
                    f"({stats['processes']} processes, "
                    f"{stats['threads']} threads, {stats['spans']} spans, "
                    f"{stats['instants']} instants, "
                    f"{stats['phase_marks']} phase marks) in {path}")
        _fail(f"{path}: unrecognised JSON artifact (not trace_event)")
    if stripped.startswith("#"):
        stats = check_prometheus(text)
        return (f"prometheus schema OK: {stats['samples']} samples in "
                f"{stats['families']} families in {path}")
    stats = check_collapsed(text)
    return (f"collapsed-stack schema OK: {stats['lines']} stacks, "
            f"total weight {stats['total_weight']}us in {path}")


def main(argv: List[str]) -> int:
    """CLI: validate each path argument; exit 1 on the first failure."""
    if not argv:
        print("usage: check_trace_schema.py PATH [PATH ...]\n\n"
              "Validates --trace-out / --flame-out / --prom-out "
              "artifacts against their exporter schema contracts.")
        return 2
    for path in argv:
        try:
            print(check_path(path))
        except SchemaError as exc:
            import sys
            print(f"trace schema check FAILED: {exc}", file=sys.stderr)
            return 1
    return 0
