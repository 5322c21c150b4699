"""Tests for the exhibit registry and the CLI plumbing.

Full exhibit runs live in ``benchmarks/``; here we verify the registry,
argument handling, and one fast exhibit end-to-end.
"""

import pytest

from repro.experiments import EXHIBITS, run_exhibits
from repro.experiments.cli import build_parser, main
from repro.experiments.config import ExperimentConfig


class TestRegistry:
    def test_all_paper_exhibits_registered(self):
        expected = {"fig04", "fig05", "fig07", "fig09", "fig13", "fig14",
                    "fig15", "fig16", "fig17", "tab1", "tab2", "tab3",
                    "fault_tail", "hedging", "fault_open", "ewma_route",
                    "adaptive_hedge"}
        assert set(EXHIBITS) == expected

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(ValueError):
            run_exhibits(["fig99"])


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.exhibit == "all"
        assert not args.full
        assert args.seed == 42
        assert args.jobs == 1

    def test_flags(self):
        args = build_parser().parse_args(
            ["--exhibit", "tab2", "--full", "--seed", "7", "--jobs", "4"])
        assert args.exhibit == "tab2"
        assert args.full
        assert args.seed == 7
        assert args.jobs == 4

    def test_unknown_exhibit_exit_code(self, capsys):
        assert main(["--exhibit", "nope"]) == 2

    def test_negative_jobs_exit_code(self, capsys):
        assert main(["--exhibit", "tab2", "--jobs", "-1"]) == 2

    def test_trace_defaults(self):
        args = build_parser().parse_args([])
        assert not args.trace
        assert args.trace_sample == 0.01
        assert args.trace_out is None

    def test_trace_flags(self):
        args = build_parser().parse_args(
            ["--trace", "--trace-sample", "0.25",
             "--trace-out", "/tmp/t.json"])
        assert args.trace
        assert args.trace_sample == 0.25
        assert args.trace_out == "/tmp/t.json"

    def test_bad_trace_sample_exit_code(self, capsys):
        assert main(["--exhibit", "tab2", "--trace",
                     "--trace-sample", "0"]) == 2
        assert main(["--exhibit", "tab2", "--trace",
                     "--trace-sample", "1.5"]) == 2

    def test_trace_out_requires_trace(self, capsys):
        assert main(["--exhibit", "tab2", "--trace-out", "/tmp/t"]) == 2


class TestObservabilityFlags:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.flame_out is None
        assert not args.obs
        assert args.obs_period == 0.01
        assert args.prom_out is None

    def test_flags(self):
        args = build_parser().parse_args(
            ["--trace", "--flame-out", "/tmp/f.collapsed", "--obs",
             "--obs-period", "0.02", "--prom-out", "/tmp/p.txt"])
        assert args.flame_out == "/tmp/f.collapsed"
        assert args.obs
        assert args.obs_period == 0.02
        assert args.prom_out == "/tmp/p.txt"

    def test_flame_out_requires_trace(self, capsys):
        assert main(["--exhibit", "tab2",
                     "--flame-out", "/tmp/f"]) == 2

    def test_prom_out_requires_obs(self, capsys):
        assert main(["--exhibit", "tab2", "--prom-out", "/tmp/p"]) == 2

    def test_bad_obs_period_exit_code(self, capsys):
        assert main(["--exhibit", "tab2", "--obs",
                     "--obs-period", "0"]) == 2
        assert main(["--exhibit", "tab2", "--obs",
                     "--obs-period", "-0.5"]) == 2

    def test_artifacts_written_with_parent_dirs(self, tmp_path, capsys):
        """End to end: one observed exhibit, all three exporters, every
        output under a directory that does not exist yet — and each
        artifact passes its own schema validator."""
        from repro.trace.schema import check_path
        trace = tmp_path / "a" / "trace.json"
        flame = tmp_path / "b" / "flame.collapsed"
        prom = tmp_path / "c" / "prom.txt"
        code = main(["--exhibit", "tab3", "--trace",
                     "--trace-sample", "0.5",
                     "--trace-out", str(trace),
                     "--flame-out", str(flame),
                     "--obs", "--prom-out", str(prom)])
        assert code == 0
        for path in (trace, flame, prom):
            assert path.is_file()
            check_path(str(path))
        out = capsys.readouterr().out
        assert "phase track" in out

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        """A plain file as a parent path component fails with a
        one-line error and exit code 1 (chmod tricks are useless when
        the suite runs as root, so use NotADirectoryError instead)."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        bad = blocker / "sub" / "trace.json"
        code = main(["--exhibit", "tab3", "--trace",
                     "--trace-sample", "0.5",
                     "--trace-out", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"cannot write {bad}" in err


class TestExhibitRun:
    def test_tab3_end_to_end(self, capsys):
        """tab3 is a representative fast exhibit: run it and check both
        the rendered text and the structured data."""
        result = run_exhibits(["tab3"], quick=True)["tab3"]
        assert result.exhibit == "tab3"
        assert "Table 3" in result.text
        for case in ("OneCase", "TwoCase", "FourCase"):
            assert case in result.data
            assert result.data[case]["throughput"] > 0
        # The imbalance signature: OneCase is backend-starved (frontend
        # makes many more selects per event than the backend side).
        one = result.data["OneCase"]
        four = result.data["FourCase"]
        one_backend_eps = one["backend_events"] / max(one["backend_selects"], 1)
        four_backend_eps = (four["backend_events"]
                            / max(four["backend_selects"], 1))
        assert one_backend_eps > four_backend_eps

    def test_exhibit_parallel_matches_serial(self):
        """Same seed => identical exhibit (text and data) whether the
        grid runs serially or over worker processes."""
        serial = run_exhibits(["tab2"], quick=True, seed=42, jobs=1)["tab2"]
        parallel = run_exhibits(["tab2"], quick=True, seed=42,
                                jobs=2)["tab2"]
        assert parallel.text == serial.text
        assert parallel.data == serial.data

    def test_interleaved_exhibits_match_standalone(self):
        """run_exhibits over one shared pool returns the same text and
        data as each exhibit run on its own."""
        batch = run_exhibits(["tab2", "tab3"], quick=True, seed=42, jobs=2)
        assert list(batch) == ["tab2", "tab3"]
        for name in ("tab2", "tab3"):
            alone = run_exhibits([name], quick=True, seed=42, jobs=1)[name]
            assert batch[name].text == alone.text
            assert batch[name].data == alone.data

    def test_interleaved_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            run_exhibits(["tab2", "nope"], quick=True, jobs=2)

    def test_interleaved_poisoned_exhibit_fails_fast(self, monkeypatch):
        """An exhibit whose config blows up inside a worker must fail
        the whole batch with the original error chained — not hang the
        shared pool in close()/join() behind queued points."""
        from repro.experiments import figures

        def render(pairs, quick):
            raise AssertionError("unreachable: the worker raised")

        poisoned = figures.Exhibit(
            lambda quick, seed: [("only", _tiny_config(
                seed, params={"no_such_param": 1}))], render)
        monkeypatch.setattr(figures, "EXHIBITS",
                            {**figures.EXHIBITS, "poisoned": poisoned})
        with pytest.raises(RuntimeError, match="poisoned") as excinfo:
            run_exhibits(["tab3", "poisoned"], quick=True, seed=42, jobs=2)
        assert isinstance(excinfo.value.__cause__, TypeError)

    def test_traced_observed_interleaved_match_standalone(self):
        """Traced + observed exhibits sharing one pool collect the same
        text, data and artifact names as each exhibit run alone."""
        flags = dict(quick=True, seed=42, trace=True, trace_sample=0.05,
                     obs=True)
        batch = run_exhibits(["tab2", "tab3"], jobs=2, **flags)
        for name in ("tab2", "tab3"):
            alone = run_exhibits([name], jobs=1, **flags)[name]
            assert batch[name].text == alone.text
            assert batch[name].data == alone.data
            assert list(batch[name].data["prometheus"]) == \
                list(alone.data["prometheus"])


class TestTailRender:
    def test_summary_p99_matches_series_table(self):
        """Figures 15-17 print each server's p99 twice, in the
        percentile table and in the summary; both must show the same
        number (819.489 ms once read 819 in one and 820 in the other)."""
        from types import SimpleNamespace

        from repro.experiments.figures import TAIL_PERCENTILES, _tail_render

        p99s = {"AIOBackend": 0.819489, "NettyBackend": 0.00475}
        pairs = [(label, SimpleNamespace(
            percentiles={q: p99 * q / 99.0 for q in TAIL_PERCENTILES},
            throughput=480.0, cpu_utilization=0.5))
            for label, p99 in p99s.items()]
        text = _tail_render("fig15a", "tail", pairs).text
        rows = [line.split() for line in text.splitlines()]
        (table_row,) = [row for row in rows if row[:1] == ["99.00"]]
        summary = {row[0]: row[2] for row in rows
                   if row[:1] and row[0] in p99s}
        assert table_row[1:] == [summary[label] for label in p99s]
        assert table_row[1:] == ["819", "4.75"]


def _tiny_config(seed, **kw):
    return ExperimentConfig(server="doubleface", concurrency=4, fanout=3,
                            response_size=100, warmup=0.2, duration=0.4,
                            seed=seed, **kw)


class TestOnePool:
    def test_all_traced_observed_runs_on_one_pool(self, monkeypatch,
                                                  capsys):
        """``--exhibit all --jobs 2 --trace --obs`` starts exactly one
        worker pool for every exhibit, and prints each exhibit."""
        from repro.experiments import cli, figures, parallel

        def render(name):
            return lambda pairs, quick: figures.ExhibitResult(
                name, name, f"{name}: {len(pairs)} points")

        tiny = {name: figures.Exhibit(
            lambda quick, seed, n=n: [(i, _tiny_config(seed + i))
                                      for i in range(n)], render(name))
            for name, n in (("one", 1), ("two", 2), ("three", 3))}
        monkeypatch.setattr(figures, "EXHIBITS", tiny)
        monkeypatch.setattr(cli, "EXHIBITS", tiny)
        pools = []

        class CountingExecutor(parallel.BatchExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "BatchExecutor", CountingExecutor)
        assert main(["--exhibit", "all", "--jobs", "2", "--trace",
                     "--obs"]) == 0
        assert len(pools) == 1
        out = capsys.readouterr().out
        for name, n in (("one", 1), ("two", 2), ("three", 3)):
            assert f"{name}: {n} points" in out
        assert "[3 exhibits regenerated (jobs=2)" in out
