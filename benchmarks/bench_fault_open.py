"""Open-workload rack-fault exhibit: replica routing must rescue p99.

Shape under the standard rack brown-out (one of two racks serving 100x
slower through ~50%-duty windows, every replica it hosts at once): with
primary-only routing and no resilience, every architecture's p99 is
dominated by the browned-out rack (tens of ms); deadline+retry failover
claws back part of it; least-outstanding replica routing plus the
adaptive p95 hedge recovers near-healthy tails because new sub-queries
drain away from the slow rack *before* any deadline has to fire.
Measured quick-grid ratios are ~9-22x (primary p99 / replica+hedge
p99); the assertion pins >= 3x so the qualitative claim survives seed
and sizing drift.

Doubles as a CLI recording a perf-trajectory file, mirroring
``bench_kernel.py``::

    PYTHONPATH=src python benchmarks/bench_fault_open.py --label my-change

``--dry-run`` prints without touching ``BENCH_faults.json``, ``--quick``
uses the CI perf-smoke sizing (implies ``--dry-run``), and ``--check``
exits 1 when any architecture's rescue ratio drops below the pinned
margin — the same invariant the pytest assertion enforces.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

BENCH_FILE = Path(__file__).resolve().parent / "BENCH_faults.json"

#: Pinned headline margin: replica-aware routing + hedging must beat
#: primary-only routing on p99 by at least this factor, per
#: architecture.  Quick-grid measurements sit at 9-22x.
MIN_P99_RESCUE = 3.0


def test_fault_open_replica_routing_rescues_p99(exhibit):
    result = exhibit("fault_open")
    for server, policies in result.data.items():
        primary = policies["primary"]
        retry = policies["primary+retry"]
        routed = policies["replica+hedge"]

        # Headline claim: replica-aware routing + hedging beats
        # primary-only routing on p99 by the pinned margin.
        assert primary["p99"] >= MIN_P99_RESCUE * routed["p99"], (
            f"{server}: p99 {primary['p99'] * 1e3:.2f}ms primary-only vs "
            f"{routed['p99'] * 1e3:.2f}ms replica+hedge — expected >= "
            f"{MIN_P99_RESCUE}x")

        # Retry failover alone helps, but routing+hedging beats it: the
        # selector avoids the slow rack instead of discovering it one
        # deadline at a time.
        assert primary["p99"] > retry["p99"]
        assert retry["p99"] > routed["p99"]

        # The machinery actually engaged: hedges fired and failovers
        # crossed to the healthy rack, at no throughput cost.
        assert routed["hedges"] > 0
        assert routed["failovers"] > 0
        assert routed["throughput"] >= 0.98 * primary["throughput"]

        # A brown-out is a slowdown, not an outage: nothing should have
        # exhausted its retries and failed outright.
        assert routed["failed_subqueries"] == 0


def collect_metrics(quick: bool = True, seed: int = 42,
                    jobs: int = 1) -> dict:
    """Run the exhibit and flatten the per-architecture headline
    numbers into one metrics dict."""
    from repro.experiments import run_exhibits

    started = time.perf_counter()
    result = run_exhibits(["fault_open"], quick=quick, seed=seed,
                          jobs=jobs)["fault_open"]
    wall = time.perf_counter() - started
    metrics: dict = {"exhibit_wall_sec": round(wall, 2)}
    for server, policies in result.data.items():
        primary = policies["primary"]["p99"]
        routed = policies["replica+hedge"]["p99"]
        metrics[f"{server}_p99_primary_ms"] = round(1e3 * primary, 3)
        metrics[f"{server}_p99_replica_hedge_ms"] = round(1e3 * routed, 3)
        metrics[f"{server}_p99_rescue_ratio"] = round(primary / routed, 2)
    return metrics


def check_margin(metrics: dict, threshold: float = MIN_P99_RESCUE) -> int:
    """Count architectures whose rescue ratio fell below *threshold*."""
    failures = 0
    for key, value in metrics.items():
        if not key.endswith("_p99_rescue_ratio"):
            continue
        status = "ok" if value >= threshold else "REGRESSED"
        print(f"check {key:40s} {value:6.2f}x (>= {threshold}x) [{status}]")
        if value < threshold:
            failures += 1
    return failures


def load_trajectory() -> dict:
    # BENCH_faults.json is shared with bench_fault_tail.py; each entry
    # carries a "benchmark" tag naming the script that produced it.
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
                        help=f"exit 1 if any architecture's p99 rescue "
                             f"ratio is < {MIN_P99_RESCUE}x")
    args = parser.parse_args(argv)
    if args.quick:
        args.dry_run = True

    metrics = collect_metrics(quick=args.quick, seed=args.seed,
                              jobs=args.jobs)
    entry = {
        "benchmark": "bench_fault_open",
        "label": args.label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "quick": args.quick,
        "metrics": metrics,
    }
    for key, value in metrics.items():
        print(f"{key:44s} {value}")

    if args.check:
        failures = check_margin(metrics)
        if failures:
            print(f"check FAILED: {failures} architecture(s) below the "
                  f"{MIN_P99_RESCUE}x margin")
            return 1
    if not args.dry_run:
        trajectory = load_trajectory()
        trajectory["entries"].append(entry)
        BENCH_FILE.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"appended to {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
