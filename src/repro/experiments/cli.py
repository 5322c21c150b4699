"""Command-line entry point: regenerate any paper exhibit.

Usage::

    repro-experiments --exhibit fig13
    repro-experiments --exhibit all --full
    python -m repro.experiments --exhibit tab2 --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time

from .figures import EXHIBITS, run_exhibits

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the DoubleFaceAD paper's figures and "
                    "tables on the simulated testbed.")
    parser.add_argument(
        "--exhibit", default="all",
        help="exhibit name (%s) or 'all'" % ", ".join(sorted(EXHIBITS)))
    parser.add_argument(
        "--full", action="store_true",
        help="full measurement windows and grids (slower, smoother)")
    parser.add_argument("--seed", type=int, default=42,
                        help="root RNG seed (default 42)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the experiment grid (default 1 = "
             "serial; 0 = one per CPU).  Results are identical for any "
             "N — points fan out but merge in declared order.")
    parser.add_argument(
        "--trace", action="store_true",
        help="run every experiment point with deterministic span "
             "tracing: appends a critical-path breakdown table to each "
             "exhibit and collects tail exemplar traces.  Tracing is "
             "observation-only — the measured numbers are identical "
             "with or without it.")
    parser.add_argument(
        "--trace-sample", type=float, default=0.01, metavar="P",
        help="head-based sampling probability for --trace "
             "(default 0.01 = 1%% of requests)")
    parser.add_argument(
        "--trace-exemplars", type=int, default=3, metavar="K",
        help="with --trace: slowest-request exemplar traces kept per "
             "request class (default 3)")
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="with --trace: write the collected exemplar traces as "
             "Chrome trace_event JSON to PATH (open in "
             "chrome://tracing or https://ui.perfetto.dev), with "
             "workload phases (warmup / measure / fault windows) as "
             "annotation tracks.  Parent directories are created.")
    parser.add_argument(
        "--flame-out", metavar="PATH", default=None,
        help="with --trace: write the cross-request flame aggregation "
             "to PATH as flamegraph.pl collapsed-stack text, whatever "
             "its extension (flamegraph.pl, inferno and web flame "
             "viewers open it).  Parent directories are created.")
    parser.add_argument(
        "--obs", action="store_true",
        help="run every experiment point with phase-annotated live "
             "telemetry: a simulated-time ticker samples gauges "
             "(queue depths, hedge/retry rates, replica estimates, "
             "CPU run queue).  Observation-only — the measured "
             "numbers are identical with or without it.")
    parser.add_argument(
        "--obs-period", type=float, default=0.01, metavar="S",
        help="with --obs: gauge sampling period in simulated seconds "
             "(default 0.01)")
    parser.add_argument(
        "--prom-out", metavar="PATH", default=None,
        help="with --obs: write end-of-run Prometheus text-format "
             "snapshots for every experiment point to PATH.  Parent "
             "directories are created.")
    parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help="profile the run under cProfile, dump raw stats to PATH "
             "(load with pstats or snakeviz) and print the top 25 "
             "cumulative-time functions.  Profiles the parent process "
             "only; use with --jobs 1 to capture simulation hot paths.")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 0:
        print(f"--jobs must be >= 0, got {args.jobs}", file=sys.stderr)
        return 2
    if not 0.0 < args.trace_sample <= 1.0:
        print(f"--trace-sample must be in (0, 1], got {args.trace_sample}",
              file=sys.stderr)
        return 2
    if args.trace_exemplars < 1:
        print(f"--trace-exemplars must be >= 1, got {args.trace_exemplars}",
              file=sys.stderr)
        return 2
    if args.trace_out and not args.trace:
        print("--trace-out requires --trace", file=sys.stderr)
        return 2
    if args.flame_out and not args.trace:
        print("--flame-out requires --trace", file=sys.stderr)
        return 2
    if args.obs_period <= 0:
        print(f"--obs-period must be positive, got {args.obs_period}",
              file=sys.stderr)
        return 2
    if args.prom_out and not args.obs:
        print("--prom-out requires --obs", file=sys.stderr)
        return 2
    if args.exhibit != "all" and args.exhibit not in EXHIBITS:
        print(f"unknown exhibit {args.exhibit!r}; choose from "
              f"{sorted(EXHIBITS)} or 'all'", file=sys.stderr)
        return 2
    if args.profile:
        return _profiled_main(args)
    return _run(args)


def _profiled_main(args) -> int:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _run(args)
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(25)
        print(f"[profile written to {args.profile}]")
    return status


def _write_trace_out(path: str, results) -> None:
    """Merge every exhibit's collected trace summaries (and phase
    windows) into one Chrome trace_event file."""
    from ..trace import write_chrome_trace
    summaries = {}
    phases = {}
    for name, result in results:
        for label, summary in result.data.get("trace_summaries",
                                              {}).items():
            if summary is not None:
                summaries[f"{name}/{label}"] = summary
        for label, windows in result.data.get("trace_phases", {}).items():
            if windows:
                phases[f"{name}/{label}"] = windows
    write_chrome_trace(path, summaries, phases=phases)
    print(f"[trace written to {path}: {len(summaries)} summaries, "
          f"{len(phases)} phase tracks]")


def _write_flame_out(path: str, results) -> None:
    """Merge every exhibit's flame aggregations into one export."""
    from ..trace import write_flame
    flames = {}
    for name, result in results:
        for label, flame in result.data.get("flames", {}).items():
            if flame is not None:
                flames[f"{name}/{label}"] = flame
    write_flame(path, flames)
    print(f"[flame (collapsed) written to {path}: {len(flames)} runs]")


def _write_prom_out(path: str, results) -> None:
    """Concatenate every exhibit's Prometheus snapshots into one page."""
    from ..obs import write_prometheus
    snapshots = {}
    for name, result in results:
        for label, text in result.data.get("prometheus", {}).items():
            snapshots[f"{name}/{label}"] = text
    write_prometheus(path, snapshots)
    print(f"[prometheus snapshot written to {path}: "
          f"{len(snapshots)} runs]")


def _write_artifacts(args, results) -> int:
    """Write every requested export; one clear line + exit 1 on I/O
    failure (missing parents are created, unwritable paths are not)."""
    writers = [(args.trace_out, _write_trace_out),
               (args.flame_out, _write_flame_out),
               (args.prom_out, _write_prom_out)]
    for path, writer in writers:
        if not path:
            continue
        try:
            writer(path, results)
        except OSError as exc:
            print(f"cannot write {path}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    return 0


def _run(args) -> int:
    names = sorted(EXHIBITS) if args.exhibit == "all" else [args.exhibit]
    started = time.time()

    def show(name, result) -> None:
        # Called as each exhibit's last point comes back: all exhibits
        # share one pool, so with --jobs N the print order varies.
        print(result.text)
        print(f"[{name} regenerated in {time.time() - started:.1f}s "
              f"wall time]")
        print()

    results = run_exhibits(names, quick=not args.full, seed=args.seed,
                           jobs=args.jobs, trace=args.trace,
                           trace_sample=args.trace_sample,
                           trace_exemplars=args.trace_exemplars,
                           obs=args.obs, obs_period=args.obs_period,
                           on_result=show)
    if len(names) > 1:
        print(f"[{len(names)} exhibits regenerated (jobs={args.jobs}) in "
              f"{time.time() - started:.1f}s wall time]")
    return _write_artifacts(args, list(results.items()))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
