"""Unit tests for the cross-request flame aggregation
(:mod:`repro.trace.flame`): fold rules, prefix-rollup totals, and the
collapsed-stack exporter against the schema validator."""

import random

from repro.trace import (FRAME_NAMES, F_SUBQUERY, FlameAccumulator,
                         K_HEDGE, K_PARSE, K_RETRY, K_ROOT, K_SERVICE,
                         KIND_NAMES, Tracer, build_flame, collapsed_stacks,
                         merge_flames, write_flame)
from repro.trace.schema import check_collapsed, check_path


def _folded_trace(tracer, acc, phase="measure", klass="default"):
    """One trace covering every fold rule."""
    trace = tracer.begin(klass, now=1.0)
    trace.add(K_PARSE, 1.0, 1.001)                       # seq<0: request
    trace.add(K_SERVICE, 1.001, 1.003, seq=0, attempt=0)  # subquery
    trace.add(K_SERVICE, 1.003, 1.007, seq=1, attempt=1)  # retry attempt
    trace.add(K_SERVICE, 1.003, 1.005, seq=2, attempt=-1)  # hedged dup
    trace.point(K_RETRY, 1.003, seq=1, attempt=1)         # point marker
    acc.fold(trace, phase)
    return trace


class TestFold:
    def test_fold_rules_route_spans_to_expected_paths(self):
        tracer = Tracer(random.Random(1), sample_rate=1.0)
        acc = FlameAccumulator()
        _folded_trace(tracer, acc)
        table = acc.tables()[("default", "measure")]
        assert table[(K_ROOT, K_PARSE)] == [1.0, 1.001 - 1.0]
        assert table[(K_ROOT, F_SUBQUERY, K_SERVICE)] == [1.0, 1.003 - 1.001]
        assert (table[(K_ROOT, F_SUBQUERY, K_RETRY, K_SERVICE)]
                == [1.0, 1.007 - 1.003])
        assert (table[(K_ROOT, F_SUBQUERY, K_HEDGE, K_SERVICE)]
                == [1.0, 1.005 - 1.003])
        # The point marker is a count-only leaf.
        assert table[(K_ROOT, F_SUBQUERY, K_RETRY)] == [1.0, 0.0]

    def test_self_weights_accumulate_exact_float_sums(self):
        acc = FlameAccumulator()
        tracer = Tracer(random.Random(1), sample_rate=1.0)
        tracer.flame = acc
        durations = [0.1, 0.2, 0.3, 0.07]
        expected = 0.0
        for d in durations:
            trace = tracer.begin("default", now=0.0)
            trace.add(K_SERVICE, 0.0, d, seq=0, attempt=0)
            acc.fold(trace, "measure")
            expected += d
        table = acc.tables()[("default", "measure")]
        node = table[(K_ROOT, F_SUBQUERY, K_SERVICE)]
        assert node[0] == float(len(durations))
        assert node[1] == expected  # exact float sum, same add order

    def test_root_span_is_structural_zero_weight(self):
        acc = FlameAccumulator()
        tracer = Tracer(random.Random(1), sample_rate=1.0)
        trace = tracer.begin("default", now=0.0)
        trace.add(K_ROOT, 0.0, 5.0)
        acc.fold(trace, "measure")
        assert acc.tables()[("default", "measure")][(K_ROOT,)] == [1.0, 0.0]

    def test_tracer_finish_streams_into_flame(self):
        tracer = Tracer(random.Random(1), sample_rate=1.0)
        tracer.flame = FlameAccumulator()
        phases = []
        tracer.phase_of = lambda t: phases.append(t) or "warmup"
        trace = tracer.begin("default", now=2.5)
        trace.add(K_SERVICE, 2.5, 2.6, seq=0, attempt=0)
        tracer.finish(trace, rt=0.2)
        assert phases == [2.5]  # hook sees the request *start* time
        assert ("default", "warmup") in tracer.flame.tables()

    def test_tracer_reset_keeps_flame(self):
        tracer = Tracer(random.Random(1), sample_rate=1.0)
        tracer.flame = FlameAccumulator()
        trace = tracer.begin("default", now=0.1)
        tracer.finish(trace, rt=0.01)
        tracer.reset(0.3)
        assert tracer.flame  # warmup folds survive the window reset


class TestBuildFlame:
    def test_totals_roll_up_strict_prefixes(self):
        acc = FlameAccumulator()
        tracer = Tracer(random.Random(1), sample_rate=1.0)
        trace = tracer.begin("default", now=0.0)
        trace.add(K_SERVICE, 0.0, 1.0, seq=0, attempt=0)
        trace.add(K_SERVICE, 0.0, 2.0, seq=1, attempt=1)
        trace.add(K_ROOT, 0.0, 3.0)
        acc.fold(trace, "measure")
        flame = build_flame(acc)
        entry = flame["tables"]["default"]["measure"]
        rows = {tuple(p): (s, t) for p, s, t in
                zip(entry["paths"], entry["self"], entry["total"])}
        # root: self 0, total = every deeper self.
        assert rows[(K_ROOT,)] == (0.0, 3.0)
        # subquery retry parent rolls up its leaf.
        assert rows[(K_ROOT, F_SUBQUERY, K_RETRY, K_SERVICE)] == (2.0, 2.0)
        assert rows[(K_ROOT, F_SUBQUERY, K_SERVICE)] == (1.0, 1.0)

    def test_sibling_kinds_do_not_cross_roll(self):
        # service (index 9) and server_queue (index 8): sorted adjacency
        # must not treat one as the other's ancestor.
        acc = FlameAccumulator()
        tracer = Tracer(random.Random(1), sample_rate=1.0)
        trace = tracer.begin("default", now=0.0)
        from repro.trace import K_SERVER_QUEUE
        trace.add(K_SERVER_QUEUE, 0.0, 1.0, seq=0, attempt=0)
        trace.add(K_SERVICE, 1.0, 3.0, seq=0, attempt=0)
        acc.fold(trace, "measure")
        entry = build_flame(acc)["tables"]["default"]["measure"]
        rows = {tuple(p): t for p, t in
                zip(entry["paths"], entry["total"])}
        assert rows[(K_ROOT, F_SUBQUERY, K_SERVER_QUEUE)] == 1.0
        assert rows[(K_ROOT, F_SUBQUERY, K_SERVICE)] == 2.0

    def test_canonical_regardless_of_fold_order(self):
        def build(order):
            acc = FlameAccumulator()
            tracer = Tracer(random.Random(1), sample_rate=1.0)
            for klass, phase, dur in order:
                trace = tracer.begin(klass, now=0.0)
                trace.add(K_SERVICE, 0.0, dur, seq=0, attempt=0)
                acc.fold(trace, phase)
            return build_flame(acc)

        rows = [("b", "measure", 0.25), ("a", "warmup", 0.5),
                ("a", "measure", 0.125)]
        assert build(rows) == build(list(reversed(rows)))

    def test_frames_vocabulary(self):
        flame = build_flame(FlameAccumulator())
        assert flame["frames"] == list(KIND_NAMES) + ["subquery"]
        assert flame["frames"][F_SUBQUERY] == "subquery"
        assert tuple(flame["frames"]) == FRAME_NAMES


class TestExporters:
    def _flames(self):
        acc = FlameAccumulator()
        tracer = Tracer(random.Random(3), sample_rate=1.0)
        trace = tracer.begin("default", now=0.0)
        trace.add(K_PARSE, 0.0, 0.004)
        trace.add(K_SERVICE, 0.0, 0.002, seq=0, attempt=0)
        trace.add(K_ROOT, 0.0, 0.006)
        acc.fold(trace, "measure")
        return {"run": build_flame(acc)}

    def test_collapsed_valid_and_skips_zero_weight(self):
        text = collapsed_stacks(self._flames())
        check_collapsed(text)
        lines = text.strip().splitlines()
        # root is structural (zero self): only the two leaves survive.
        assert len(lines) == 2
        assert "run;default;measure;root;parse 4000" in lines
        assert ("run;default;measure;root;subquery;service 2000"
                in lines)

    def test_empty_flames_export_cleanly(self):
        assert collapsed_stacks({}) == ""

    def test_merge_flames_drops_none(self):
        flame = self._flames()["run"]
        merged = merge_flames({"a": None, "b": flame})
        assert list(merged) == ["b"]

    def test_write_flame_formats_and_parent_dirs(self, tmp_path):
        """One format whatever the extension: collapsed-stack text,
        with missing parent directories created."""
        flames = self._flames()
        nested = tmp_path / "deep" / "dir" / "flame.json"
        collapsed = tmp_path / "flame.collapsed"
        for path in (nested, collapsed):
            write_flame(str(path), flames)
            assert path.read_text() == collapsed_stacks(flames)
            assert check_path(str(path)).startswith("collapsed")
