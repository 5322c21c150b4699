"""Fault-tail exhibits: resilience must rescue p99 under slow shards.

Shape under the standard slow-shard fault (2 shards intermittently
serving 100x slower, primaries only): without any resilience, every
architecture's p99 is dominated by the slow windows (tens of ms);
deadline+retry with replica failover claws most of it back, and adding
a p95 hedge shaves the remainder.  Measured quick-grid ratios are ~5x
(no-resilience p99 / hedge+retry p99); the assertion pins >= 2x so the
qualitative claim survives seed and sizing drift.

The ``adaptive_hedge`` exhibit sharpens the hedging claim on a
heterogeneous topology (slow-shard brown-out plus a +0.5 ms cross-rack
spine): per-shard attribution hedging (``hedge_policy="attribution"``)
must rescue p99 at least as hard as the global-percentile hedge does.
Measured quick-grid: attribution rescues 1.75x vs the global policy's
1.48x (an 1.18x advantage); the pins keep >= 1.3x and >= 1.05x
respectively.

Doubles as a CLI recording a perf-trajectory entry into
``BENCH_faults.json``, mirroring ``bench_fault_open.py``::

    PYTHONPATH=src python benchmarks/bench_fault_tail.py --label my-change

``--dry-run`` prints without touching ``BENCH_faults.json``, ``--quick``
uses the CI perf-smoke sizing (implies ``--dry-run``), and ``--check``
exits 1 when the attribution-hedging margins drop below the pins — the
same invariants the pytest assertions enforce.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

BENCH_FILE = Path(__file__).resolve().parent / "BENCH_faults.json"

#: Pinned absolute rescue: attribution hedging must beat retry-only on
#: p99 by at least this factor.  Quick-grid measurement: 1.75x.
MIN_ATTRIBUTION_RESCUE = 1.3

#: Pinned relative margin: attribution's rescue ratio over the global
#: fixed-percentile policy's rescue ratio (equivalently global p99 /
#: attribution p99).  Quick-grid measurement: 1.18x.
MIN_ATTRIBUTION_ADVANTAGE = 1.05


def test_fault_tail_resilience_rescues_p99(exhibit):
    result = exhibit("fault_tail")
    for server, policies in result.data.items():
        none = policies["no-resilience"]
        retry = policies["retry"]
        hedged = policies["hedge+retry"]

        # Headline claim: hedging+retry cuts p99 by at least 2x versus
        # running naked under the same fault schedule.
        assert none["p99"] >= 2.0 * hedged["p99"], (
            f"{server}: p99 {none['p99'] * 1e3:.2f}ms naked vs "
            f"{hedged['p99'] * 1e3:.2f}ms hedged — expected >= 2x")

        # Retry alone already beats no-resilience.
        assert none["p99"] > retry["p99"]

        # The machinery actually engaged, and completing sub-queries
        # faster must not cost throughput.
        assert retry["retries"] > 0
        assert hedged["hedges"] > 0
        assert hedged["throughput"] > none["throughput"]

        # A fault is a slowdown, not an outage: nothing should have
        # exhausted its retries and failed outright.
        assert hedged["failed_subqueries"] == 0


def test_adaptive_hedge_attribution_beats_global_percentile(exhibit):
    result = exhibit("adaptive_hedge")
    retry = result.data["retry-only"]
    global_p95 = result.data["global-p95"]
    attribution = result.data["attribution"]

    # Headline claim: per-shard attribution hedging rescues p99 at
    # least as hard as the global-percentile hedge (and both rescue).
    attr_rescue = retry["p99"] / attribution["p99"]
    global_rescue = retry["p99"] / global_p95["p99"]
    assert attr_rescue >= MIN_ATTRIBUTION_RESCUE, (
        f"attribution rescued p99 only {attr_rescue:.2f}x vs retry-only "
        f"(expected >= {MIN_ATTRIBUTION_RESCUE}x)")
    assert attr_rescue >= MIN_ATTRIBUTION_ADVANTAGE * global_rescue, (
        f"attribution rescue {attr_rescue:.2f}x vs global-p95 "
        f"{global_rescue:.2f}x — expected >= "
        f"{MIN_ATTRIBUTION_ADVANTAGE}x advantage")

    # Both hedging policies engaged, at no meaningful throughput cost.
    assert global_p95["hedge_wins"] > 0
    assert attribution["hedge_wins"] > 0
    assert attribution["throughput"] >= 0.95 * retry["throughput"]

    # The digest converged per shard: the cross-rack shards (odd
    # rack_of) must have learned visibly larger delays than the
    # rack-local ones — the heterogeneity the global window cannot see.
    delays = result.data["hedge_delays"]["attribution"]
    assert len(delays) >= 10
    values = sorted(delays.values())
    assert values[-1] > 1.3 * values[0]


def collect_metrics(quick: bool = True, seed: int = 42,
                    jobs: int = 1) -> dict:
    """Run the adaptive_hedge exhibit and flatten the headline numbers
    into one metrics dict."""
    from repro.experiments import run_exhibits

    started = time.perf_counter()
    result = run_exhibits(["adaptive_hedge"], quick=quick, seed=seed,
                          jobs=jobs)["adaptive_hedge"]
    wall = time.perf_counter() - started
    retry = result.data["retry-only"]["p99"]
    global_p95 = result.data["global-p95"]["p99"]
    attribution = result.data["attribution"]["p99"]
    return {
        "exhibit_wall_sec": round(wall, 2),
        "p99_retry_only_ms": round(1e3 * retry, 3),
        "p99_global_p95_ms": round(1e3 * global_p95, 3),
        "p99_attribution_ms": round(1e3 * attribution, 3),
        "attribution_rescue_ratio": round(retry / attribution, 3),
        "global_rescue_ratio": round(retry / global_p95, 3),
        "attribution_advantage_ratio": round(global_p95 / attribution, 3),
        "hedges_attribution": round(
            result.data["attribution"]["hedges"]),
        "hedge_wins_attribution": round(
            result.data["attribution"]["hedge_wins"]),
        "learned_shards": len(result.data["hedge_delays"]["attribution"]),
    }


def check_margin(metrics: dict,
                 min_rescue: float = MIN_ATTRIBUTION_RESCUE,
                 min_advantage: float = MIN_ATTRIBUTION_ADVANTAGE) -> int:
    """Count pinned margins the metrics fell below."""
    checks = (
        ("attribution_rescue_ratio", min_rescue),
        ("attribution_advantage_ratio", min_advantage),
    )
    failures = 0
    for key, threshold in checks:
        value = metrics[key]
        status = "ok" if value >= threshold else "REGRESSED"
        print(f"check {key:32s} {value:6.2f}x (>= {threshold}x) [{status}]")
        if value < threshold:
            failures += 1
    return failures


def load_trajectory() -> dict:
    if BENCH_FILE.exists():
        return json.loads(BENCH_FILE.read_text())
    return {"benchmark": "faults", "entries": []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="unlabelled",
                        help="entry label recorded in BENCH_faults.json")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the exhibit grid")
    parser.add_argument("--dry-run", action="store_true",
                        help="print results without updating the file")
    parser.add_argument("--quick", action="store_true",
                        help="CI perf-smoke sizing (implies --dry-run)")
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if the attribution margins fall "
                             f"below {MIN_ATTRIBUTION_RESCUE}x / "
                             f"{MIN_ATTRIBUTION_ADVANTAGE}x")
    args = parser.parse_args(argv)
    if args.quick:
        args.dry_run = True

    metrics = collect_metrics(quick=args.quick, seed=args.seed,
                              jobs=args.jobs)
    entry = {
        "benchmark": "bench_fault_tail",
        "label": args.label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "quick": args.quick,
        "metrics": metrics,
    }
    for key, value in metrics.items():
        print(f"{key:36s} {value}")

    if args.check:
        failures = check_margin(metrics)
        if failures:
            print(f"check FAILED: {failures} margin(s) below the pin")
            return 1
    if not args.dry_run:
        trajectory = load_trajectory()
        trajectory["entries"].append(entry)
        BENCH_FILE.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"appended to {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
