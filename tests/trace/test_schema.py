"""Unit tests for the importable artifact validators
(:mod:`repro.trace.schema`, satellite of the observability PR): each
validator accepts the matching exporter's real output and rejects
targeted corruptions with a :class:`SchemaError`."""

import json
import random

import pytest

from repro.obs.prometheus import prometheus_snapshot
from repro.trace import (FlameAccumulator, K_PARSE, K_SERVICE, K_ROOT,
                         Tracer, build_flame, build_summary,
                         chrome_trace, collapsed_stacks)
from repro.trace.schema import (SchemaError, check_chrome_trace,
                                check_collapsed, check_path,
                                check_prometheus, main)


def _summary():
    tracer = Tracer(random.Random(5), sample_rate=1.0)
    trace = tracer.begin("default", now=0.0)
    trace.add(K_PARSE, 0.0, 0.001)
    trace.add(K_SERVICE, 0.001, 0.004, seq=0, attempt=0)
    tracer.finish(trace, rt=0.005)
    return build_summary(tracer)


def _flame():
    acc = FlameAccumulator()
    tracer = Tracer(random.Random(5), sample_rate=1.0)
    trace = tracer.begin("default", now=0.0)
    trace.add(K_PARSE, 0.0, 0.001)
    trace.add(K_SERVICE, 0.001, 0.004, seq=0, attempt=0)
    trace.add(K_ROOT, 0.0, 0.005)
    acc.fold(trace, "measure")
    return build_flame(acc)


class TestChromeTrace:
    def test_accepts_exporter_output(self):
        doc = chrome_trace({"run": _summary()})
        stats = check_chrome_trace(doc)
        assert stats["spans"] > 0
        assert stats["phase_marks"] == 0

    def test_accepts_phase_annotated_output(self):
        doc = chrome_trace({"run": _summary()},
                           phases={"run": [("warmup", 0.0, 0.2),
                                           ("measure", 0.2, 1.0)]})
        stats = check_chrome_trace(doc)
        assert stats["phase_marks"] == 4  # one X + one instant per phase

    def test_phases_without_summary_still_validate(self):
        doc = chrome_trace({"run": _summary()},
                           phases={"other": [("measure", 0.0, 1.0)]})
        assert check_chrome_trace(doc)["phase_marks"] == 2

    def test_rejects_unknown_span_kind(self):
        doc = chrome_trace({"run": _summary()})
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                event["name"] = "mystery"
                break
        with pytest.raises(SchemaError, match="unknown span kind"):
            check_chrome_trace(doc)

    def test_rejects_phase_mark_without_args(self):
        doc = chrome_trace({"run": _summary()},
                           phases={"run": [("measure", 0.0, 1.0)]})
        for event in doc["traceEvents"]:
            if event["name"].startswith("phase:"):
                event["args"] = {}
                break
        with pytest.raises(SchemaError, match="args.phase"):
            check_chrome_trace(doc)

    def test_rejects_unnamed_process(self):
        doc = chrome_trace({"run": _summary()})
        doc["traceEvents"] = [e for e in doc["traceEvents"]
                              if e.get("name") != "process_name"]
        with pytest.raises(SchemaError, match="process_name"):
            check_chrome_trace(doc)

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            check_chrome_trace({"traceEvents": [],
                                "displayTimeUnit": "ms"})


class TestCollapsed:
    def test_accepts_exporter_output(self):
        stats = check_collapsed(collapsed_stacks({"run": _flame()}))
        assert stats["lines"] == 2

    def test_rejects_zero_weight(self):
        with pytest.raises(SchemaError, match="positive"):
            check_collapsed("a;root 0\n")

    def test_rejects_non_integer_weight(self):
        with pytest.raises(SchemaError, match="integer"):
            check_collapsed("a;root 1.5\n")

    def test_rejects_empty_frame(self):
        with pytest.raises(SchemaError, match="empty frame"):
            check_collapsed("a;;root 10\n")

    def test_rejects_unknown_leaf(self):
        with pytest.raises(SchemaError, match="leaf frame"):
            check_collapsed("a;not_a_span 10\n")

    def test_rejects_no_samples(self):
        with pytest.raises(SchemaError, match="no samples"):
            check_collapsed("\n\n")


class TestPrometheus:
    def _snapshot(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment
        result = run_experiment(ExperimentConfig(
            concurrency=4, n_shards=4, fanout=2, warmup=0.05,
            duration=0.1, seed=11, obs=True))
        return prometheus_snapshot(result, label="test")

    def test_accepts_exporter_output(self):
        stats = check_prometheus(self._snapshot())
        assert stats["families"] >= 5

    def test_rejects_untyped_family(self):
        with pytest.raises(SchemaError, match="TYPE"):
            check_prometheus('repro_thing{a="b"} 1.0\n')

    def test_rejects_bad_value(self):
        text = "# TYPE repro_thing gauge\nrepro_thing nope\n"
        with pytest.raises(SchemaError, match="not a float"):
            check_prometheus(text)

    def test_rejects_empty(self):
        with pytest.raises(SchemaError, match="no metric samples"):
            check_prometheus("# TYPE repro_thing gauge\n")


class TestDispatch:
    def test_check_path_sniffs_all_formats(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(chrome_trace({"r": _summary()})))
        collapsed = tmp_path / "flame.collapsed"
        collapsed.write_text(collapsed_stacks({"r": _flame()}))
        prom = tmp_path / "prom.txt"
        prom.write_text("# HELP repro_x x\n# TYPE repro_x gauge\n"
                        "repro_x 1.0\n")
        assert check_path(str(trace_path)).startswith("trace schema OK")
        assert check_path(str(collapsed)).startswith("collapsed")
        assert check_path(str(prom)).startswith("prometheus")

    def test_check_path_rejects_other_json(self, tmp_path):
        """Flames have one format; a speedscope-style JSON document is
        no longer a recognised artifact."""
        other = tmp_path / "flame.json"
        other.write_text(json.dumps({
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "profiles": []}))
        with pytest.raises(SchemaError, match="unrecognised JSON"):
            check_path(str(other))

    def test_check_path_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            check_path(str(tmp_path / "nope.json"))

    def test_main_multiple_paths_and_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "flame.collapsed"
        good.write_text(collapsed_stacks({"r": _flame()}))
        bad = tmp_path / "bad.collapsed"
        bad.write_text("a;root zero\n")
        assert main([str(good)]) == 0
        assert main([str(good), str(bad)]) == 1
        assert main([]) == 2
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert "usage" in captured.out

    def test_shim_still_runs(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path
        good = tmp_path / "flame.collapsed"
        good.write_text(collapsed_stacks({"r": _flame()}))
        repo = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, str(repo / "scripts/check_trace_schema.py"),
             str(good)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "collapsed-stack schema OK" in proc.stdout
