"""Result-transport benchmark: columnar shared memory vs pickle.

Measures how fast ``ExperimentResult``\\ s cross the worker→parent
boundary for a ``--full``-shaped tail grid — the payload profile where
transport actually matters (tens of thousands of latency/thread
samples per point, per-class percentile tables, fault counters):

- ``*_merge_latency_us`` — the parent's serial per-result merge cost:
  ``pickle.loads`` of a whole pre-pickled result vs header unpickle +
  columnar decode out of a mapped shared-memory region.  This is the
  number the exhibit runner's merge loop pays per point.
- ``*_results_per_sec`` — end-to-end hand-off rate through a real
  spawn pool: workers hold a prebuilt tail-shaped result and ship it
  per task (encode + ring memcpy + ticket, or highest-protocol
  pickle + pipe), the parent decodes each completion as it lands.
- ``merge_speedup`` / ``pipeline_speedup`` — pickle-over-shm latency
  ratio and shm-over-pickle rate ratio.  Ratios, not absolute rates,
  are what ``--check`` enforces: they hold across machines.

Each full run appends an entry to ``benchmarks/BENCH_core.json`` (the
trajectory file shared with ``bench_kernel``)::

    PYTHONPATH=src python benchmarks/bench_transport.py --label my-change

Use ``--quick`` for CI perf-smoke sizes (implies ``--dry-run``),
``--check`` to fail (exit 1) when ``merge_speedup`` drops under the
1.5x floor or either speedup falls below 80% of the latest recorded
transport entry, and ``--emit PATH`` to write the updated trajectory
to a side file (CI uploads it as an artifact even on dry runs).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import pickle
import platform
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.config import ExperimentConfig, ExperimentResult
from repro.experiments.transport import ShmRing, decode_result, encode_result

BENCH_FILE = Path(__file__).resolve().parent / "BENCH_core.json"

PERCENTILES = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)

#: Request classes a --full tab2/fig13 point reports per-class tables
#: for, and the fault counters a resilience exhibit point carries.
CLASSES = ("lfan", "sfan", "point", "scan")
FAULT_NAMES = ("faults.injected", "faults.shard_stall", "faults.rack_down",
               "resilience.hedges", "resilience.hedge_wins",
               "resilience.retries", "resilience.breaker_open",
               "server.completed.degraded")


def _lcg(seed: int = 12345):
    """Deterministic value stream — no RNG dependency, same shape every
    run and every machine."""
    state = seed
    while True:
        state = (state * 1103515245 + 12345) % (1 << 31)
        yield state / (1 << 31)


def make_result(n_latency: int, n_thread: int) -> ExperimentResult:
    """A synthetic result shaped like one --full tail-exhibit point."""
    values = _lcg()
    lat_t, lat_v = array("d"), array("d")
    for i in range(n_latency):
        lat_t.append(i * 1e-3)
        lat_v.append(0.001 + next(values) * 0.2)
    thr_t, thr_v = array("d"), array("d")
    for i in range(n_thread):
        thr_t.append(i * 0.05)
        thr_v.append(float(int(next(values) * 200)))
    return ExperimentResult(
        config=ExperimentConfig(server="doubleface", concurrency=256,
                                keep_latency_samples=True),
        throughput=next(values) * 50_000,
        percentiles={q: next(values) for q in PERCENTILES},
        class_percentiles={k: {q: next(values) for q in PERCENTILES}
                           for k in CLASSES},
        mean_rt=next(values),
        cpu_utilization=next(values),
        cpu_shares={c: next(values) for c in
                    ("app", "lock", "thread_init", "select", "syscall",
                     "ctx_switch")},
        ctx_switches_per_sec=next(values) * 1e5,
        avg_running_threads=next(values) * 300,
        selector_stats=[],
        selects_per_sec=next(values) * 1e4,
        select_cpu_share=next(values),
        pool_spawns=float(int(next(values) * 100)),
        completed=float(n_latency),
        window=60.0,
        thread_times=thr_t, thread_values=thr_v,
        latency_times=lat_t, latency_values=lat_v,
        fault_counters={name: float(int(next(values) * 1000))
                        for name in FAULT_NAMES},
    )


# ---------------------------------------------------------------------------
# Pool workers (spawn: this module is re-imported in each worker)
# ---------------------------------------------------------------------------

_RESULT = None
_RING = None


def _init_worker(spec, n_latency: int, n_thread: int) -> None:
    global _RESULT, _RING
    _RESULT = make_result(n_latency, n_thread)
    _RING = ShmRing.attach(spec) if spec is not None else None


def _ship_shm(_index: int):
    """Per-task shm transport: flatten + ring memcpy + ticket (inline
    column bytes when the ring is full) — the `_run_columnar` path."""
    header, columns = encode_result(_RESULT)
    header_bytes = pickle.dumps(header, pickle.HIGHEST_PROTOCOL)
    ticket = _RING.write(columns)
    if ticket is None:
        return header_bytes, None, memoryview(columns).cast("B").tobytes()
    return header_bytes, ticket, None


def _ship_pickle(_index: int) -> bytes:
    """Per-task pickle transport: whole-result highest-protocol pickle
    through the result pipe — the `_run_pickled` path."""
    return pickle.dumps(_RESULT, pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def bench_merge(n_latency: int, n_thread: int, repeats: int) -> dict:
    """Parent-side per-result merge cost, in microseconds (min over
    *repeats* timed decodes — the decode is the serial bottleneck of
    the parallel runner's gather loop)."""
    result = make_result(n_latency, n_thread)
    blob = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
    header, columns = encode_result(result)
    header_bytes = pickle.dumps(header, pickle.HIGHEST_PROTOCOL)

    ring = ShmRing.create(len(columns) * columns.itemsize + 64)
    try:
        offset, nbytes = ring.write(columns)

        def timed(fn):
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - started)
            return best * 1e6

        pickle_us = timed(lambda: pickle.loads(blob))

        def shm_decode():
            view = ring.view(offset, nbytes)
            try:
                decode_result(pickle.loads(header_bytes), view)
            finally:
                view.release()

        shm_us = timed(shm_decode)

        # Honesty check: both paths must rebuild the identical result.
        view = ring.view(offset, nbytes)
        try:
            rebuilt = decode_result(pickle.loads(header_bytes), view)
        finally:
            view.release()
        assert dataclasses.asdict(rebuilt) == \
            dataclasses.asdict(pickle.loads(blob)), "transport identity broke"
    finally:
        ring.destroy()
    return {"pickle_merge_latency_us": round(pickle_us, 1),
            "shm_merge_latency_us": round(shm_us, 1)}


def bench_pool(transport: str, points: int, jobs: int, n_latency: int,
               n_thread: int, ring_bytes: int = 32 << 20) -> float:
    """End-to-end results/sec through a spawn pool: *points* hand-offs
    of the prebuilt tail-shaped result, the parent decoding each one as
    it completes, like the real runner."""
    ctx = multiprocessing.get_context("spawn")
    ring = ShmRing.create(ring_bytes, ctx) if transport == "shm" else None
    spec = ring.spec() if ring is not None else None
    try:
        with ctx.Pool(processes=jobs, initializer=_init_worker,
                      initargs=(spec, n_latency, n_thread)) as pool:
            ship = _ship_shm if transport == "shm" else _ship_pickle
            # Warm-up: worker init (result build) + first-task overhead.
            for payload in pool.imap_unordered(ship, range(jobs)):
                _consume(transport, payload, ring)
            started = time.perf_counter()
            for payload in pool.imap_unordered(ship, range(points)):
                _consume(transport, payload, ring)
            elapsed = time.perf_counter() - started
    finally:
        if ring is not None:
            ring.destroy()
    return points / elapsed


def _consume(transport: str, payload, ring) -> ExperimentResult:
    if transport == "pickle":
        return pickle.loads(payload)
    header_bytes, ticket, inline = payload
    header = pickle.loads(header_bytes)
    if ticket is None:
        return decode_result(header, inline)
    offset, nbytes = ticket
    view = ring.view(offset, nbytes)
    try:
        return decode_result(header, view)
    finally:
        view.release()
        ring.release(nbytes)


def run_all(quick: bool = False, repeats: int = 2) -> dict:
    if quick:
        n_latency, n_thread, points, merge_repeats = 20_000, 2_000, 24, 30
    else:
        n_latency, n_thread, points, merge_repeats = 100_000, 5_000, 48, 20
    jobs = min(4, multiprocessing.cpu_count() or 1)

    metrics = bench_merge(n_latency, n_thread, merge_repeats)

    def best_rate(transport):
        return max(bench_pool(transport, points, jobs, n_latency, n_thread)
                   for _ in range(repeats))

    metrics["pickle_results_per_sec"] = round(best_rate("pickle"), 1)
    metrics["shm_results_per_sec"] = round(best_rate("shm"), 1)
    metrics["merge_speedup"] = round(
        metrics["pickle_merge_latency_us"] / metrics["shm_merge_latency_us"],
        2)
    metrics["pipeline_speedup"] = round(
        metrics["shm_results_per_sec"] / metrics["pickle_results_per_sec"], 2)
    metrics["grid_points"] = points
    metrics["latency_samples_per_point"] = n_latency
    return metrics


#: --check floors: the tentpole's acceptance bar (merge must be at
#: least 1.5x faster than pickle) and the regression band against the
#: last recorded entry (speedups are machine-portable ratios).
SPEEDUP_FLOOR = 1.5
BASELINE_BAND = 0.80


def check_regression(metrics: dict, trajectory: dict) -> int:
    failures = 0
    if metrics["merge_speedup"] < SPEEDUP_FLOOR:
        print(f"check merge_speedup {metrics['merge_speedup']:.2f}x "
              f"< floor {SPEEDUP_FLOOR}x [REGRESSED]")
        failures += 1
    else:
        print(f"check merge_speedup {metrics['merge_speedup']:.2f}x "
              f">= floor {SPEEDUP_FLOOR}x [ok]")
    # Band comparisons only make sense against a baseline measured at
    # the same payload size — quick and full runs sit at different
    # points of the serialize-vs-memcpy curve.
    baseline = None
    for entry in reversed(trajectory.get("entries", [])):
        if ("merge_speedup" in entry["metrics"]
                and entry["metrics"].get("latency_samples_per_point")
                == metrics["latency_samples_per_point"]):
            baseline = entry
            break
    if baseline is None:
        print("check: no same-size transport baseline in BENCH_core.json; "
              "floor check only")
        return failures
    for key in ("merge_speedup", "pipeline_speedup"):
        base = baseline["metrics"].get(key)
        if not base:
            continue
        ratio = metrics[key] / base
        status = "ok" if ratio >= BASELINE_BAND else "REGRESSED"
        print(f"check {key:20s} {ratio:5.2f}x of {baseline['label']}"
              f" [{status}]")
        if ratio < BASELINE_BAND:
            failures += 1
    return failures


def load_trajectory() -> dict:
    if BENCH_FILE.exists():
        return json.loads(BENCH_FILE.read_text())
    return {"benchmark": "bench_kernel", "entries": []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="unlabelled",
                        help="entry label recorded in BENCH_core.json")
    parser.add_argument("--dry-run", action="store_true",
                        help="print results without updating the file")
    parser.add_argument("--quick", action="store_true",
                        help="CI perf-smoke sizes (implies --dry-run)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if merge_speedup < 1.5x or either "
                             "speedup is <80%% of the latest recorded "
                             "transport entry")
    parser.add_argument("--emit", metavar="PATH", default=None,
                        help="also write the updated trajectory (with this "
                             "run's entry) to PATH — works with --dry-run, "
                             "for CI artifact upload")
    args = parser.parse_args(argv)
    if args.quick:
        args.dry_run = True

    metrics = run_all(quick=args.quick, repeats=3 if args.check else 2)
    entry = {
        "label": args.label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "metrics": metrics,
    }
    for key, value in metrics.items():
        print(f"{key:28s} {value}")

    trajectory = load_trajectory()
    failures = check_regression(metrics, trajectory) if args.check else 0
    if args.emit or not args.dry_run:
        trajectory["entries"].append(entry)
        if args.emit:
            Path(args.emit).write_text(
                json.dumps(trajectory, indent=2) + "\n")
            print(f"emitted trajectory to {args.emit}")
        if not args.dry_run:
            BENCH_FILE.write_text(json.dumps(trajectory, indent=2) + "\n")
            print(f"appended to {BENCH_FILE}")
    if failures:
        print(f"check FAILED: {failures} metric(s) regressed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
