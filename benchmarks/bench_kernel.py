"""Kernel / metrics micro-benchmarks with a perf-trajectory file.

Measures the hot paths the exhibit harness spends its time in:

- ``timeout_events_per_sec`` — pure kernel: many processes chaining
  short timeouts (event-queue push/dispatch, ``Process._resume``,
  callbacks).
- ``queue_events_per_sec`` — kernel + :class:`repro.sim.resources.Queue`
  hand-off (producer/consumer pairs, the reactor-mailbox pattern).
- ``fanout_events_per_sec`` — the paper's headline shape: fanout-20
  scatter/gather joins via ``CountdownLatch`` + ``call_later`` (one
  allocation + N integer decrements per request), with
  ``fanout_allof_events_per_sec`` as the old ``AllOf``-over-N-Timeouts
  pattern for reference.
- ``percentile_query_sec`` — ``LatencyRecorder.cdf_points`` over the
  harness's six percentiles on a large sample set (the sorted-window
  cache target).
- ``sched_*_events_per_sec`` — the CPU scheduler hot path: threads
  chaining multi-quantum jobs through :class:`repro.sim.cpu.Cpu`.
  ``sched_uncontended`` runs one thread per core, and
  ``sched_contended`` oversubscribes the cores 3:1 so the run queue
  stays hot (guards the preemption path).  ``--check`` skips both: the
  scheduler's regression pin is the end-to-end ``closed_large``
  workload in ``perfbench/``.
- ``cpu_job_cycle_ratio`` — what one CPU job costs next to a plain
  kernel event: µs per ``yield thread.execute(1e-6)`` cycle of a lone
  thread on a one-core :class:`repro.sim.cpu.Cpu`, divided by µs per
  ``yield sim.timeout(1e-6)`` cycle (the same simulated effect with no
  scheduler), both measured in this process.  A diagnostic of the
  scheduler's fixed per-job overhead; ``--check`` skips it.
- ``trace_overhead_ratio`` — what 1%-sampled request tracing
  (``repro.trace``) costs on a real exhibit-shaped run: the median of
  paired untraced/traced wall-time ratios over identical simulations
  (tracing adds no kernel events, so the wall ratio *is* the
  events/sec ratio).  ``--check`` pins it ≥ ``TRACE_OVERHEAD_FLOOR``.
- ``obs_overhead_ratio`` — the full observability stack on the same
  shape: 1%-sampled tracing + flame aggregation + the telemetry
  ticker at the default 10 ms period vs the plain run, paired-median
  like the trace ratio.  ``--check`` pins it ≥ ``OBS_OVERHEAD_FLOOR``.
- ``quick_exhibit_wall_sec`` — one representative end-to-end quick
  exhibit (``tab3``) through :func:`run_exhibits`.

Each run appends an entry to ``benchmarks/BENCH_core.json`` so future
PRs can diff events/sec against every earlier recording::

    PYTHONPATH=src python benchmarks/bench_kernel.py --label my-change

Use ``--no-exhibit`` for a fast kernel-only pass, ``--dry-run`` to
print without touching the trajectory file, ``--quick`` for the CI
perf-smoke sizes, and ``--check`` to fail (exit 1) when any events/sec
metric regresses more than 20% against the latest recorded entry
(``--check`` runs best-of-5 instead of best-of-3, trading a few extra
seconds for the variance headroom the tighter band needs).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.sim.kernel import Simulator
from repro.sim.metrics import LatencyRecorder
from repro.sim.resources import Queue

BENCH_FILE = Path(__file__).resolve().parent / "BENCH_core.json"

#: The percentile set every ExperimentResult reports.
PERCENTILES = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)

#: --check fails if 1%-sampled tracing costs more than 10% events/sec
#: on the exhibit-shaped workload (ratio of untraced to traced rate
#: must stay above this; ratios are machine-portable).
TRACE_OVERHEAD_FLOOR = 0.9

#: --check fails if the full observability stack (1%-sampled tracing +
#: flame aggregation + the 10 ms telemetry ticker) costs more than 10%
#: wall time on the same exhibit-shaped workload.
OBS_OVERHEAD_FLOOR = 0.9


def bench_timeouts(processes: int = 50, chain: int = 2000) -> float:
    """Events/sec for *processes* generators each chaining *chain*
    timeouts."""

    def pingpong(sim, n):
        for _ in range(n):
            yield sim.timeout(0.001)

    sim = Simulator()
    for _ in range(processes):
        sim.process(pingpong(sim, chain))
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return sim._event_count / elapsed


def bench_queue_handoff(pairs: int = 20, items: int = 5000) -> float:
    """Events/sec for producer/consumer pairs trading items through a
    Queue (the reactor-mailbox hot path)."""

    def producer(sim, queue, n):
        for i in range(n):
            queue.put(i)
            yield sim.timeout(0.0001)

    def consumer(sim, queue, n):
        for _ in range(n):
            yield queue.get()

    sim = Simulator()
    for _ in range(pairs):
        queue = Queue(sim)
        sim.process(producer(sim, queue, items))
        sim.process(consumer(sim, queue, items))
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return sim._event_count / elapsed


def bench_fanout(requests: int = 3000, fanout: int = 20,
                 use_latch: bool = True) -> float:
    """Events/sec for fanout-N scatter/gather joins (Figs. 4-8 shape).

    ``use_latch=True`` runs the countdown-latch path: one
    :class:`CountdownLatch` plus ``fanout`` bare ``call_later`` entries
    per request.  ``use_latch=False`` reproduces the pre-latch pattern:
    an ``AllOf`` over ``fanout`` Timeout child events (one Event
    allocation + callback registration per sub-query).  Both dispatch
    ``fanout + 1`` kernel events per request, so the rates compare
    apples to apples.
    """

    def driver_allof(sim, n, width):
        for _ in range(n):
            children = [sim.timeout(0.0001 * (1 + i % 5))
                        for i in range(width)]
            yield sim.all_of(children)

    def driver_latch(sim, n, width):
        for _ in range(n):
            latch = sim.latch(width)
            count_down = latch.count_down
            call_later = sim.call_later
            for i in range(width):
                call_later(0.0001 * (1 + i % 5), count_down)
            yield latch

    sim = Simulator()
    driver = driver_latch if use_latch else driver_allof
    sim.process(driver(sim, requests, fanout))
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return sim._event_count / elapsed


def bench_percentiles(samples: int = 200_000, repeats: int = 20) -> float:
    """Seconds for *repeats* full cdf_points queries over *samples*
    recorded latencies (lower is better)."""
    recorder = LatencyRecorder()
    # Deterministic pseudo-random values; no RNG dependency needed.
    value = 0.5
    for i in range(samples):
        value = (value * 1103515245 + 12345) % 1.0 + 1e-9
        recorder.record(i * 1e-4, value)
    recorder.start_at = samples * 1e-4 * 0.2  # discard a warm-up fifth
    started = time.perf_counter()
    for _ in range(repeats):
        recorder.cdf_points(PERCENTILES)
        recorder.mean()
        recorder.maximum()
        len(recorder)
    return time.perf_counter() - started


def bench_scheduler(threads: int = 2, jobs: int = 400, work: float = 8.0e-3,
                    contended: bool = False) -> float:
    """Events/sec for threads chaining multi-quantum CPU jobs.

    *work* spans several scheduler quanta (default 8 at the 1 ms
    quantum), so every job runs as a chain of per-quantum slices.
    """
    from repro.sim.cpu import Cpu
    from repro.sim.metrics import Metrics
    from repro.sim.params import CostParams
    from repro.sim.threads import SimThread

    sim = Simulator()
    cpu = Cpu(sim, Metrics(), CostParams(), cores=threads)
    n_threads = threads * 3 if contended else threads

    def worker(thread, n):
        for _ in range(n):
            yield cpu.execute(thread, work)

    for _ in range(n_threads):
        sim.process(worker(SimThread(cpu), jobs))
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return sim._event_count / elapsed


def bench_cpu_job_cycle(cycles: int = 50_000, rounds: int = 5) -> float:
    """µs per ``execute`` cycle over µs per ``timeout`` cycle.

    One process chains *cycles* 1 µs steps, once as CPU jobs on its own
    thread (a one-core ``Cpu``, so every job is a same-instant
    continuation on a warm core) and once as plain timeouts.  The two
    runs alternate for *rounds* rounds; the ratio is of the fastest run
    of each, the least noisy estimate of each path's cost.
    """
    from repro.sim.cpu import Cpu
    from repro.sim.metrics import Metrics
    from repro.sim.params import CostParams
    from repro.sim.threads import SimThread

    def jobs(thread, n):
        for _ in range(n):
            yield thread.execute(1e-6)

    def timeouts(sim, n):
        for _ in range(n):
            yield sim.timeout(1e-6)

    def run(use_cpu: bool) -> float:
        sim = Simulator()
        if use_cpu:
            cpu = Cpu(sim, Metrics(), CostParams(), cores=1)
            sim.process(jobs(SimThread(cpu), cycles))
        else:
            sim.process(timeouts(sim, cycles))
        started = time.perf_counter()
        sim.run()
        return (time.perf_counter() - started) / cycles * 1e6

    job_us = timeout_us = float("inf")
    for _ in range(rounds):
        job_us = min(job_us, run(True))
        timeout_us = min(timeout_us, run(False))
    return job_us / timeout_us


def bench_trace_overhead(rounds: int = 3, duration: float = 0.5) -> float:
    """1%-sampled tracing cost on a real exhibit-shaped run.

    Median of **paired** untraced/traced wall-time ratios (a paired
    run puts both sides under near-identical machine conditions, and
    the median discards the odd bad round): both runs simulate the
    identical event sequence — tracing is observation-only and the
    sampler draws from its own stream — so the wall ratio is exactly
    the events/sec ratio.  1.0 = free; 0.9 = tracing costs 10%.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    def run(trace):
        config = ExperimentConfig(
            server="doubleface", concurrency=16, fanout=5,
            response_size=100, warmup=0.2, duration=duration, seed=42,
            trace=trace, trace_sample=0.01)
        started = time.perf_counter()
        run_experiment(config)
        return time.perf_counter() - started

    ratios = []
    for _ in range(rounds):
        elapsed_untraced = run(trace=False)
        elapsed_traced = run(trace=True)
        ratios.append(elapsed_untraced / elapsed_traced)
    ratios.sort()
    return ratios[len(ratios) // 2]


def bench_obs_overhead(rounds: int = 3, duration: float = 0.5) -> float:
    """Full-observability cost on the exhibit-shaped run.

    Same paired-median protocol as :func:`bench_trace_overhead`, but
    the observed side carries the whole stack: tracing at 1% (with the
    per-request flame fold in ``Tracer.finish``) plus the telemetry
    ticker at the default 10 ms period.  The ticker's events shift seq
    numbers only, so both sides still simulate the identical schedule
    and the wall ratio stays an apples-to-apples cost measure.
    1.0 = free; 0.9 = observability costs 10%.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    def run(observed):
        config = ExperimentConfig(
            server="doubleface", concurrency=16, fanout=5,
            response_size=100, warmup=0.2, duration=duration, seed=42,
            trace=observed, trace_sample=0.01, obs=observed)
        started = time.perf_counter()
        run_experiment(config)
        return time.perf_counter() - started

    ratios = []
    for _ in range(rounds):
        elapsed_plain = run(observed=False)
        elapsed_observed = run(observed=True)
        ratios.append(elapsed_plain / elapsed_observed)
    ratios.sort()
    return ratios[len(ratios) // 2]


def bench_quick_exhibit() -> float:
    """Wall-clock seconds for one representative quick exhibit."""
    from repro.experiments import run_exhibits

    started = time.perf_counter()
    run_exhibits(["tab3"], quick=True, seed=42)
    return time.perf_counter() - started


def run_all(with_exhibit: bool = True, quick: bool = False,
            repeats: int = 3) -> dict:
    # Every events/sec metric is best-of-N (default 3; the CI --check
    # pass uses 5): one short run routinely loses 20%+ to scheduler
    # noise (CI runners especially), and the max is the least-biased
    # estimator of the machine's actual rate.
    def best(fn, *args, **kw):
        return max(fn(*args, **kw) for _ in range(repeats))

    if quick:
        # Sized so per-event rates land within a few percent of the
        # full-size runs (interpreter warm-up amortized) while the whole
        # quick pass stays a few seconds — tight enough for the CI
        # check's 30% regression band to be meaningful.
        metrics = {
            "timeout_events_per_sec": round(best(bench_timeouts, 50, 1000)),
            "queue_events_per_sec": round(best(bench_queue_handoff, 20, 2500)),
            "fanout_events_per_sec": round(best(bench_fanout, 1500)),
            "fanout_allof_events_per_sec": round(
                best(bench_fanout, 1500, use_latch=False)),
            "sched_uncontended_events_per_sec": round(
                best(bench_scheduler)),
            "sched_contended_events_per_sec": round(
                best(bench_scheduler, contended=True)),
            "percentile_query_sec": round(bench_percentiles(50_000, 5), 4),
        }
    else:
        metrics = {
            "timeout_events_per_sec": round(best(bench_timeouts)),
            "queue_events_per_sec": round(best(bench_queue_handoff)),
            "fanout_events_per_sec": round(best(bench_fanout)),
            "fanout_allof_events_per_sec": round(
                best(bench_fanout, use_latch=False)),
            "sched_uncontended_events_per_sec": round(best(bench_scheduler)),
            "sched_contended_events_per_sec": round(
                best(bench_scheduler, contended=True)),
            "percentile_query_sec": round(
                min(bench_percentiles() for _ in range(3)), 4),
        }
    metrics["cpu_job_cycle_ratio"] = round(
        bench_cpu_job_cycle(cycles=20_000 if quick else 50_000), 2)
    metrics["trace_overhead_ratio"] = round(
        bench_trace_overhead(rounds=3 if quick else 5,
                             duration=0.4 if quick else 0.8), 3)
    metrics["obs_overhead_ratio"] = round(
        bench_obs_overhead(rounds=3 if quick else 5,
                           duration=0.4 if quick else 0.8), 3)
    if with_exhibit:
        metrics["quick_exhibit_wall_sec"] = round(bench_quick_exhibit(), 2)
    return metrics


def check_regression(metrics: dict, trajectory: dict,
                     threshold: float = 0.80) -> int:
    """Compare events/sec metrics against the latest recorded entry.

    Returns the number of metrics that regressed below ``threshold``
    times their baseline (0 = pass).  Metrics the baseline entry does
    not carry are skipped.
    """
    # The trajectory file also holds other benchmarks' entries (e.g.
    # the historical result-transport ones): baseline = the newest
    # entry that actually carries kernel events/sec metrics, not just
    # entries[-1].
    baseline = None
    for entry in reversed(trajectory.get("entries", [])):
        if any(k.endswith("_events_per_sec") for k in entry["metrics"]):
            baseline = entry
            break
    if baseline is None:
        print("check: no kernel baseline entries in BENCH_core.json; "
              "skipping")
        return 0
    failures = 0
    for key, value in metrics.items():
        if not key.endswith("_events_per_sec"):
            continue
        if key.startswith("sched_"):
            # Scheduler runs are short and CPU-scheduler-shaped, so
            # their absolute rates swing well past the band with
            # machine load; the regression pin for this path is the
            # end-to-end perfbench ``closed_large`` workload.
            continue
        base = baseline["metrics"].get(key)
        if not base:
            continue
        ratio = value / base
        status = "ok" if ratio >= threshold else "REGRESSED"
        print(f"check {key:28s} {ratio:5.2f}x of {baseline['label']}"
              f" [{status}]")
        if ratio < threshold:
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
    parser.add_argument("--no-exhibit", action="store_true",
                        help="skip the end-to-end quick-exhibit timing")
    parser.add_argument("--dry-run", action="store_true",
                        help="print results without updating the file")
    parser.add_argument("--quick", action="store_true",
                        help="CI perf-smoke sizes (implies --no-exhibit "
                             "and --dry-run)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any events/sec metric is <80%% of "
                             "the latest BENCH_core.json entry "
                             "(runs best-of-5 instead of best-of-3)")
    args = parser.parse_args(argv)
    if args.quick:
        args.no_exhibit = True
        args.dry_run = True

    metrics = run_all(with_exhibit=not args.no_exhibit, quick=args.quick,
                      repeats=5 if args.check else 3)
    entry = {
        "label": args.label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "metrics": metrics,
    }
    for key, value in metrics.items():
        print(f"{key:28s} {value}")

    trajectory = load_trajectory()
    baseline = trajectory["entries"][0] if trajectory["entries"] else None
    if baseline is not None:
        base = baseline["metrics"].get("timeout_events_per_sec")
        if base:
            speedup = metrics["timeout_events_per_sec"] / base
            print(f"{'vs baseline (timeouts)':28s} {speedup:.2f}x "
                  f"({baseline['label']})")
    latch = metrics.get("fanout_events_per_sec")
    allof = metrics.get("fanout_allof_events_per_sec")
    if latch and allof:
        print(f"{'latch vs AllOf (fanout)':28s} {latch / allof:.2f}x")
    if args.check:
        failures = check_regression(metrics, trajectory)
        overhead = metrics.get("trace_overhead_ratio")
        if overhead is not None:
            status = ("ok" if overhead >= TRACE_OVERHEAD_FLOOR
                      else "REGRESSED")
            print(f"check {'trace_overhead_ratio':28s} {overhead:5.3f}x "
                  f"(floor {TRACE_OVERHEAD_FLOOR}x) [{status}]")
            if overhead < TRACE_OVERHEAD_FLOOR:
                failures += 1
        obs_overhead = metrics.get("obs_overhead_ratio")
        if obs_overhead is not None:
            status = ("ok" if obs_overhead >= OBS_OVERHEAD_FLOOR
                      else "REGRESSED")
            print(f"check {'obs_overhead_ratio':28s} {obs_overhead:5.3f}x "
                  f"(floor {OBS_OVERHEAD_FLOOR}x) [{status}]")
            if obs_overhead < OBS_OVERHEAD_FLOOR:
                failures += 1
        if failures:
            print(f"check FAILED: {failures} metric(s) regressed >20%")
            return 1
    if not args.dry_run:
        trajectory["entries"].append(entry)
        BENCH_FILE.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"appended to {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
