"""Output checks for every point the benchmark runs.

A point is correct when its result digest matches the stored reference
for that (workload, seed), or, for a seed with no reference, when the
result satisfies the invariants below.  A simulator change that moves
any measured output therefore counts as a failure, never as a gain.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Optional

#: The measured ``ExperimentResult`` fields the digest covers, in order.
#: A fixed list, so a field added to the result later does not move the
#: digest; a field removed or renamed fails the check loudly.
DIGEST_FIELDS = (
    "throughput", "percentiles", "class_percentiles", "mean_rt",
    "cpu_utilization", "cpu_shares", "ctx_switches_per_sec",
    "avg_running_threads", "selector_stats", "selects_per_sec",
    "select_cpu_share", "pool_spawns", "completed", "window",
    "thread_times", "thread_values", "latency_times", "latency_values",
    "fault_counters", "trace_summary", "hedge_delays", "obs_names",
    "obs_times", "obs_values", "phases", "flame",
)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: Seeds with stored reference digests: the default and a held-out one.
REFERENCE_SEEDS = (42, 7)

_NON_NEGATIVE = ("throughput", "mean_rt", "cpu_utilization",
                 "ctx_switches_per_sec", "avg_running_threads",
                 "selects_per_sec", "select_cpu_share", "pool_spawns",
                 "completed")


def _canonical(value):
    """*value* with every int made a float and every tuple a list.

    The pooled result transport ships counts as floats (``3`` comes
    back as ``3.0``) and sequences as lists; both are equal by value,
    so the digest must not tell them apart.  Floats keep their exact
    ``repr``.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, dict):
        return {_canonical(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(result) -> str:
    """SHA-256 over the ``repr`` of :data:`DIGEST_FIELDS`, exact for
    every float (see :func:`_canonical` for ints and sequences)."""
    text = repr([(name, _canonical(getattr(result, name)))
                 for name in DIGEST_FIELDS])
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_errors(result) -> List[str]:
    """Seed-independent sanity checks; an empty list means none broke."""
    errors = []
    if not result.completed > 0:
        errors.append(f"completed={result.completed!r} is not > 0")
    tables = {"": result.percentiles}
    tables.update({f"{k}:": v for k, v in result.class_percentiles.items()})
    for prefix, table in tables.items():
        qs = sorted(table)
        values = [table[q] for q in qs]
        if any(math.isnan(v) for v in values) or values != sorted(values):
            errors.append(f"{prefix}percentiles not non-decreasing in q")
    counters = result.fault_counters
    if counters.get("resilience.hedge_wins", 0.0) > counters.get(
            "resilience.hedges", 0.0):
        errors.append("hedge_wins > hedges")
    for name, value in counters.items():
        if value < 0:
            errors.append(f"counter {name}={value!r} < 0")
    for name in _NON_NEGATIVE:
        if getattr(result, name) < 0:
            errors.append(f"{name}={getattr(result, name)!r} < 0")
    return errors


def load_reference(workload: str, seed: int,
                   path: str = REFERENCE_PATH) -> Optional[List[str]]:
    """Stored per-point digests for (workload, seed), or None."""
    try:
        with open(path) as f:
            table = json.load(f)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def point_errors(result, index: int,
                 reference: Optional[List[str]]) -> List[str]:
    """Everything wrong with point *index*'s result."""
    errors = invariant_errors(result)
    if reference is not None:
        got = digest(result)
        if index >= len(reference) or reference[index] != got:
            errors.append(f"digest {got[:12]} differs from the reference")
    return errors


def write_reference(table: Dict[str, Dict[str, List[str]]],
                    path: str = REFERENCE_PATH) -> None:
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
