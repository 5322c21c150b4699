"""End-to-end benchmark of the simulator, driven the way an exhibit
user drives it.

    python3 perfbench/run.py --workload closed_small --seed 42 \\
        --seconds 30 --trace 0

Each workload (``workloads.py``) is a fixed list of generated
``ExperimentConfig`` points, run through
``repro.experiments.runner.run_experiment``.  Every point's result is
checked (``check.py``).

``--trace 0`` measures end to end: rounds of one set-up and one serial
pass over every point, for ``--seconds``, scaled for the machine's
speed drift (``calibrate.py``); the medians are reported.  ``--trace 1``
is the separate profiled run: one plain and one cProfile pass, folded
into layers (``layers.py``), exact counts read from the run's own
counters, and, where the user path is a pool, one
``repro.experiments.parallel.BatchExecutor`` pass that times the result
decode.  Hooks are installed from this file only.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable table.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import calibrate  # noqa: E402
from check import digest, load_reference, point_errors  # noqa: E402
from layers import LAYERS, OTHER, LayerFold, map_problems  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fewest rounds (one set-up + one pass each) per run, however short
#: ``--seconds`` is.
MIN_ROUNDS = 3
#: Profiled layer self-times plus ``other`` must cover the profiled wall
#: time to within this share.
ACCOUNTING_TOLERANCE = 0.05

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import repro, repro.experiments.parallel\n"
    "print(time.perf_counter() - t)\n")


# ---------------------------------------------------------------------------
# Running points
# ---------------------------------------------------------------------------

class Tally:
    """Attempted / failed point runs, with the first few error lines."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, label: str, errors: List[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(errors)}")


def run_serial(configs) -> Tuple[List[object], List[float]]:
    """Run every point in-process: (results, per-point walls).  A point
    that raises yields its exception as its result."""
    from repro.experiments.runner import run_experiment
    results, walls = [], []
    for config in configs:
        start = time.perf_counter()
        try:
            results.append(run_experiment(config))
        except Exception as exc:  # one bad point must not stop the run
            results.append(exc)
        walls.append(time.perf_counter() - start)
    return results, walls


def run_pooled(executor, configs) -> List[object]:
    try:
        return executor.run(configs)
    except Exception as exc:  # the batch is lost; charge every point
        return [exc] * len(configs)


def check_pass(tally: Tally, results, reference, first) -> List[str]:
    """Check one pass's results; return their digests.  *first* is the
    first pass's digests (every later pass must repeat them)."""
    digests = []
    for index, result in enumerate(results):
        if isinstance(result, Exception):
            tally.record(f"point {index}", [f"raised {result!r}"])
            digests.append(None)
            continue
        errors = point_errors(result, index, reference)
        got = digest(result)
        if first is not None and first[index] != got:
            errors.append("differs from the first pass (non-deterministic)")
        tally.record(f"point {index}", errors)
        digests.append(got)
    return digests


def completed(results) -> float:
    return sum(r.completed for r in results if not isinstance(r, Exception))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

class _Built(Exception):
    """Raised by the patched ``Simulator.run``: construction is done."""


def construct_seconds(config) -> float:
    """Wall time of ``run_experiment`` up to its first ``Simulator.run``."""
    from repro.experiments.runner import run_experiment
    from repro.sim.kernel import Simulator
    original = Simulator.run

    def stop(self, until=None):
        raise _Built

    Simulator.run = stop
    start = time.perf_counter()
    try:
        run_experiment(config)
    except _Built:
        pass
    finally:
        Simulator.run = original
    return time.perf_counter() - start


def import_seconds() -> float:
    """Import time of ``repro`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def stop_resource_tracker() -> None:
    """Stop and reap the resource tracker a worker pool starts, so the
    run leaves no process behind.  Call it only once every pool and
    ring is gone, or it unlinks their semaphores as leaks."""
    import gc
    from multiprocessing import resource_tracker
    gc.collect()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(workload, seed: int, seconds: float, tally: Tally,
               report: List[str]) -> Dict[str, Tuple[float, str]]:
    """Rounds of one set-up then one pass over every point, until
    *seconds* have passed.

    The calibration kernel runs before the set-up, after it, and after
    every point.  A round's set-up time is divided by the mean of the
    two calibrations around it, its pass time by the mean of the pass's
    calibrations, and both are scaled to the reference machine
    (``calibrate.REFERENCE_S``).
    That takes out the machine's speed drift; the medians over rounds
    are reported.
    """
    configs = workload.configs(seed)
    reference = load_reference(workload.name, seed)
    report.append(f"reference digests for seed {seed}: "
                  f"{'stored' if reference else 'none (invariants only)'}")
    scale = calibrate.REFERENCE_S
    setups, raw, scaled, first = [], [], [], None
    begin = time.perf_counter()
    while (len(raw) < MIN_ROUNDS
           or time.perf_counter() - begin < seconds):
        before = calibrate.seconds()
        setup = import_seconds() + sum(construct_seconds(c) for c in configs)
        cals = [calibrate.seconds()]
        setups.append(setup * 2 * scale / (before + cals[0]))
        results, walls = [], []
        for config in configs:
            (result,), (wall,) = run_serial([config])
            results.append(result)
            walls.append(wall)
            cals.append(calibrate.seconds())
        raw.append(walls)
        scaled.append(sum(walls) * scale / statistics.mean(cals))
        digests = check_pass(tally, results, reference, first)
        first = first or digests
        requests = completed(results)
        del results
    wall = statistics.median(scaled)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.append(f"rounds: {len(raw)}; unscaled pass walls [s]: "
                  + " ".join(f"{sum(w):.3f}" for w in raw)
                  + "; scaled: " + " ".join(f"{w:.3f}" for w in scaled))
    error_rate = tally.failed / tally.attempted
    report.append(f"error_rate: {error_rate:.4f} fraction "
                  f"({tally.failed}/{tally.attempted} point runs)")
    return {
        "wall_s": (wall, "s"),
        "sim_requests_per_s": (requests / wall, "req/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MiB"),
        "points_ok_ratio": (1.0 - error_rate, "fraction"),
    }


# ---------------------------------------------------------------------------
# --trace 1: the profiled run
# ---------------------------------------------------------------------------

class CountHooks:
    """Wrap ``Simulator.run`` and the ``Metrics`` constructor to read
    each point's exact event count and counters."""

    COUNTERS = ("client.completed", "net.messages", "net.bytes",
                "selector.total_selects", "selector.total_events",
                "mutex.contended_total", "datastore.queries",
                "resilience.hedges", "resilience.hedge_wins",
                "resilience.retries", "resilience.failed_subqueries")

    def __init__(self) -> None:
        self.events = 0
        self.totals = {name: 0.0 for name in self.COUNTERS}
        self.totals["cpu.ctx_switches"] = 0.0
        self._live: list = []

    @contextlib.contextmanager
    def installed(self):
        from repro.sim.kernel import Simulator
        from repro.sim.metrics import Metrics
        run, init = Simulator.run, Metrics.__init__
        hooks = self

        def counted_run(sim, until=None):
            before = sim._event_count
            try:
                return run(sim, until)
            finally:
                hooks.events += sim._event_count - before

        def captured_init(metrics, *args, **kwargs):
            init(metrics, *args, **kwargs)
            hooks._live.append(metrics)

        Simulator.run, Metrics.__init__ = counted_run, captured_init
        try:
            yield self
        finally:
            Simulator.run, Metrics.__init__ = run, init

    def harvest(self) -> None:
        """Add the whole-run counters of every point since the last
        harvest (warm-up included, like the profile)."""
        for metrics in self._live:
            counters = metrics.counters
            for name in self.COUNTERS:
                self.totals[name] += counters.get(name, 0.0)
            self.totals["cpu.ctx_switches"] += sum(
                v for k, v in counters.items()
                if k.startswith("cpu.") and k.endswith(".ctx_switches"))
        self._live.clear()


@contextlib.contextmanager
def decode_hook():
    """Time the parent-side decode of every pooled result and size its
    encoded payload (pickled header + column bytes)."""
    from repro.experiments import parallel
    original = parallel._decode_payload
    seen = {"decode_s": 0.0, "bytes": 0, "results": 0}

    def timed(payload, ring):
        header_bytes, ticket, inline = payload
        seen["bytes"] += len(header_bytes) + (
            ticket[1] if ticket is not None else len(inline))
        start = time.perf_counter()
        try:
            return original(payload, ring)
        finally:
            seen["decode_s"] += time.perf_counter() - start
            seen["results"] += 1

    parallel._decode_payload = timed
    try:
        yield seen
    finally:
        parallel._decode_payload = original


def profiled(workload, seed: int, tally: Tally, report: List[str]):
    from repro.core import scheduling
    from repro.experiments.runner import run_experiment
    from repro.sim import cpu
    from repro.sim.kernel import Simulator
    from repro.sim.metrics import LatencyRecorder

    configs = workload.configs(seed)
    reference = load_reference(workload.name, seed)

    # Each point runs plain, then profiled, back to back, so a slow
    # spell on the machine inflates both sides of the overhead ratio.
    profile = cProfile.Profile()
    hooks = CountHooks()
    plain_wall = profiled_wall = 0.0
    plain, results = [], []
    for config in configs:
        point, (wall,) = run_serial([config])
        plain += point
        plain_wall += wall
        with hooks.installed():
            start = time.perf_counter()
            profile.enable()
            try:
                results.append(run_experiment(config))
            except Exception as exc:
                results.append(exc)
            finally:
                profile.disable()
                profiled_wall += time.perf_counter() - start
        hooks.harvest()
    serial_digests = check_pass(tally, plain, reference, None)
    del plain
    check_pass(tally, results, reference, serial_digests)
    requests = hooks.totals["client.completed"]
    del results

    transport = {"decode_s": 0.0, "bytes": 0, "results": 0}
    if workload.jobs > 1:
        from repro.experiments.parallel import BatchExecutor
        with decode_hook() as transport:
            with BatchExecutor(jobs=workload.jobs) as executor:
                pooled = run_pooled(executor, configs)
        check_pass(tally, pooled, reference, serial_digests)
        del pooled

    fold = LayerFold(pstats.Stats(profile).stats, SRC)
    self_s = fold.self_times()
    accounted = sum(self_s.values()) / profiled_wall
    totals = hooks.totals

    m: Dict[str, Tuple[float, str]] = {}
    ratios: Dict[str, Tuple[float, float]] = {}

    def per(name, num, den, unit):
        m[name] = (num / den if den else 0.0, unit)
        ratios[name] = (num, den)

    m["requests"] = (requests, "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["other.self_s"] = (self_s[OTHER], "s")

    m["sim.kernel.events"] = (hooks.events, "count")
    m["sim.kernel.far_pushes"] = (fold.builtin_calls(
        "<built-in method _heapq.heappush>", Simulator._push_slow), "count")
    per("sim.kernel.events_per_request", hooks.events, requests, "1/req")

    jobs = fold.calls(cpu._Job.__init__)
    stints = fold.calls(cpu.Cpu._start_stint)
    coalesced = fold.calls(cpu.Cpu._coalesce_stint)
    m["sim.cpu.jobs"] = (jobs, "count")
    per("sim.cpu.jobs_per_request", jobs, requests, "1/req")
    m["sim.cpu.stints"] = (stints, "count")
    m["sim.cpu.coalesced_stints"] = (coalesced, "count")
    per("sim.cpu.coalesced_ratio", coalesced, stints, "fraction")
    m["sim.cpu.ctx_switches"] = (totals["cpu.ctx_switches"], "count")
    per("sim.cpu.ctx_switches_per_request", totals["cpu.ctx_switches"],
        requests, "1/req")

    contended = totals["mutex.contended_total"]
    m["sim.threads.mutex_contended"] = (contended, "count")
    per("sim.threads.mutex_contended_per_request", contended, requests,
        "1/req")

    m["sim.network.messages"] = (totals["net.messages"], "count")
    per("sim.network.messages_per_request", totals["net.messages"],
        requests, "1/req")
    m["sim.network.bytes"] = (totals["net.bytes"], "B")
    per("sim.network.bytes_per_request", totals["net.bytes"], requests,
        "B/req")

    selects = totals["selector.total_selects"]
    m["sim.syscalls.selects"] = (selects, "count")
    m["sim.syscalls.events"] = (totals["selector.total_events"], "count")
    per("sim.syscalls.selects_per_request", selects, requests, "1/req")
    per("sim.syscalls.events_per_select", totals["selector.total_events"],
        selects, "1/select")

    order_fns = [cls.__dict__["order"] for cls in vars(scheduling).values()
                 if isinstance(cls, type) and "order" in cls.__dict__]
    m["core.batches_ordered"] = (fold.calls(*order_fns), "count")

    m["datastore.queries"] = (totals["datastore.queries"], "count")
    per("datastore.queries_per_request", totals["datastore.queries"],
        requests, "1/req")

    m["sim.metrics.collect_s"] = (fold.cumulative(
        LatencyRecorder.percentile, LatencyRecorder.cdf_points), "s")

    hedges = totals["resilience.hedges"]
    wins = totals["resilience.hedge_wins"]
    retries = totals["resilience.retries"]
    m["faults.hedges"] = (hedges, "count")
    per("faults.hedges_per_request", hedges, requests, "1/req")
    m["faults.hedge_wins"] = (wins, "count")
    per("faults.hedge_win_ratio", wins, hedges, "fraction")
    m["faults.retries"] = (retries, "count")
    per("faults.retries_per_request", retries, requests, "1/req")
    m["faults.failed_subqueries"] = (
        totals["resilience.failed_subqueries"], "count")

    m["experiments.decode_s"] = (transport["decode_s"], "s")
    m["experiments.result_bytes"] = (
        transport["bytes"] / transport["results"]
        if transport["results"] else 0.0, "B")
    if transport["results"]:
        ratios["experiments.result_bytes"] = (transport["bytes"],
                                              transport["results"])

    m["profile.wall_s"] = (profiled_wall, "s")
    m["profile.plain_wall_s"] = (plain_wall, "s")
    per("profile.overhead_ratio", profiled_wall, plain_wall, "ratio")
    per("profile.accounted_ratio", sum(self_s.values()), profiled_wall,
        "ratio")
    unmapped = sorted(fold.unmapped | set(map_problems(SRC)[0]))
    m["layers.unmapped_modules"] = (len(unmapped), "count")

    report.append(f"profiled {len(configs)} points serially in-process; "
                  f"counts cover warm-up + window ({requests:.0f} "
                  f"requests)")
    ok = abs(accounted - 1.0) <= ACCOUNTING_TOLERANCE
    report.append(f"accounting: layers + other = {accounted:.4f} x profiled "
                  f"wall (tolerance +-{ACCOUNTING_TOLERANCE}): "
                  f"{'ok' if ok else 'OUT OF TOLERANCE'}")
    if unmapped:
        report.append("unmapped modules (charged to other): "
                      + ", ".join(unmapped))
    for name in workload.zero:
        value = m[name][0]
        verdict = "held" if value == 0 else "FAILED"
        report.append(f"prediction {name} == 0 on {workload.name}: "
                      f"{verdict} (measured {value!r})")
    report.append("shares of profiled self time: " + ", ".join(
        f"{layer} {100 * t / profiled_wall:.1f}%"
        for layer, t in sorted(self_s.items(), key=lambda kv: -kv[1])
        if t > 0))
    return m, ratios


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def format_table(metrics, ratios) -> List[str]:
    lines = []
    for name, (value, unit) in metrics.items():
        base = ""
        if name in ratios:
            num, den = ratios[name]
            base = f"   ({num:.6g} / {den:.6g})"
        lines.append(f"  {name:40s} {value:>16.6g} {unit}{base}")
    return lines


def import_repro() -> Optional[str]:
    """Import ``repro`` from this checkout; return an error or None."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return f"no simulator source at {os.path.relpath(SRC)}/repro"
    sys.path.insert(0, SRC)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        return f"imported repro from {where}, not from this checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_repro()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tally = Tally()
    report = [f"workload {workload.name} (seed {args.seed}): {workload.shape}"]
    if args.trace:
        metrics, ratios = profiled(workload, args.seed, tally, report)
    else:
        metrics = end_to_end(workload, args.seed, args.seconds, tally, report)
        ratios = {}
    stop_resource_tracker()
    for line in report:
        print(line)
    for line in tally.errors:
        print("ERROR " + line)
    for line in format_table(metrics, ratios):
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
