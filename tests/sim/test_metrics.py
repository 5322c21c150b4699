"""Unit tests for metrics: counters, latency recorders, CPU accounting."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.metrics import CpuAccounting, LatencyRecorder, Metrics


class TestLatencyRecorder:
    def test_empty_is_nan(self):
        r = LatencyRecorder()
        assert math.isnan(r.percentile(99.0))
        assert math.isnan(r.mean())
        assert math.isnan(r.maximum())

    def test_single_sample(self):
        r = LatencyRecorder()
        r.record(0.0, 5.0)
        assert r.percentile(0.0) == 5.0
        assert r.percentile(100.0) == 5.0
        assert r.mean() == 5.0

    def test_median_interpolates(self):
        r = LatencyRecorder()
        for v in (1.0, 2.0, 3.0, 4.0):
            r.record(0.0, v)
        assert r.percentile(50.0) == pytest.approx(2.5)

    def test_out_of_range_rejected(self):
        r = LatencyRecorder()
        r.record(0.0, 1.0)
        with pytest.raises(ValueError):
            r.percentile(101.0)

    def test_window_excludes_warmup(self):
        r = LatencyRecorder()
        r.record(0.5, 100.0)  # warm-up sample
        r.record(1.5, 1.0)
        r.start_at = 1.0
        assert len(r) == 1
        assert r.maximum() == 1.0
        assert r.raw_count == 2

    def test_cdf_points(self):
        r = LatencyRecorder()
        for v in range(1, 101):
            r.record(0.0, float(v))
        points = r.cdf_points([50.0, 99.0])
        assert points[0][0] == 50.0
        assert points[0][1] == pytest.approx(50.5)
        assert points[1][1] == pytest.approx(99.01)

    def test_sorted_window_is_cached_across_queries(self):
        r = LatencyRecorder()
        for v in (3.0, 1.0, 2.0):
            r.record(0.0, v)
        first = r._window_sorted()
        assert first == [1.0, 2.0, 3.0]
        # No new samples, no window move: the same list object serves
        # every percentile/mean/len query.
        assert r._window_sorted() is first

    def test_cache_invalidated_by_record(self):
        r = LatencyRecorder()
        r.record(0.0, 5.0)
        assert r.percentile(100.0) == 5.0
        r.record(0.0, 9.0)
        assert r.percentile(100.0) == 9.0
        assert r.mean() == pytest.approx(7.0)
        assert len(r) == 2

    def test_cache_invalidated_by_start_at_change(self):
        r = LatencyRecorder()
        r.record(0.5, 100.0)
        r.record(1.5, 1.0)
        assert r.maximum() == 100.0
        r.start_at = 1.0
        assert r.maximum() == 1.0
        assert len(r) == 1
        r.start_at = 0.0
        assert len(r) == 2

    def test_aggregates_agree_with_uncached_reference(self):
        r = LatencyRecorder()
        samples = [(0.1 * i, float((7 * i) % 13)) for i in range(50)]
        for t, v in samples:
            r.record(t, v)
        r.start_at = 2.0
        reference = [v for (t, v) in samples if t >= 2.0]
        assert len(r) == len(reference)
        assert r.mean() == pytest.approx(sum(reference) / len(reference))
        assert r.maximum() == max(reference)


class TestColumnarBuffers:
    """The array-backed storage behind LatencyRecorder: the columnar
    views must cut the same window the scalar queries do."""

    def test_window_columns_arrival_order(self):
        r = LatencyRecorder()
        for t, v in ((0.5, 9.0), (1.5, 3.0), (2.5, 1.0), (3.5, 2.0)):
            r.record(t, v)
        r.start_at = 1.0
        times, values = r.window_columns()
        assert list(times) == [1.5, 2.5, 3.5]
        assert list(values) == [3.0, 1.0, 2.0]

    def test_window_columns_empty(self):
        times, values = LatencyRecorder().window_columns()
        assert len(times) == 0 and len(values) == 0

    def test_out_of_order_record_rejected(self):
        """The bisect window cut needs samples in time order, so an
        earlier time is refused and leaves the recorder unchanged."""
        r = LatencyRecorder()
        r.record(1.0, 10.0)
        r.record(1.0, 11.0)  # equal times are in order
        with pytest.raises(ValueError):
            r.record(0.5, 5.0)
        assert r.raw_count == 2
        times, values = r.window_columns()
        assert list(zip(times, values)) == [(1.0, 10.0), (1.0, 11.0)]


class TestCpuAccounting:
    def test_charge_and_shares(self):
        cpu = CpuAccounting()
        cpu.charge("app", 0.7)
        cpu.charge("select", 0.3)
        assert cpu.total_busy() == pytest.approx(1.0)
        assert cpu.category_share("select") == pytest.approx(0.3)

    def test_negative_charge_rejected(self):
        cpu = CpuAccounting()
        with pytest.raises(ValueError):
            cpu.charge("app", -1.0)

    def test_window_subtraction(self):
        cpu = CpuAccounting()
        cpu.charge("app", 1.0)
        cpu.mark_window_start(10.0)
        cpu.charge("app", 0.5)
        assert cpu.windowed()["app"] == pytest.approx(0.5)

    def test_utilization(self):
        cpu = CpuAccounting()
        cpu.mark_window_start(0.0)
        cpu.charge("app", 1.0)
        assert cpu.utilization(2.0, cores=1) == pytest.approx(0.5)
        assert cpu.utilization(2.0, cores=2) == pytest.approx(0.25)

    def test_utilization_empty_window(self):
        cpu = CpuAccounting()
        cpu.mark_window_start(5.0)
        assert cpu.utilization(5.0, cores=1) == 0.0

    def test_share_of_empty_is_zero(self):
        cpu = CpuAccounting()
        assert cpu.category_share("app") == 0.0

    def test_total_busy_ever_monotone(self):
        cpu = CpuAccounting()
        cpu.charge("a", 1.0)
        first = cpu.total_busy_ever
        cpu.charge("b", 2.0)
        assert cpu.total_busy_ever == pytest.approx(first + 2.0)


class TestMetrics:
    def test_counters_window(self):
        m = Metrics()
        m.add("x", 5)
        m.mark_window_start(1.0)
        m.add("x", 3)
        assert m.count("x") == 3
        assert m.raw_count("x") == 8

    def test_rate(self):
        m = Metrics()
        m.mark_window_start(1.0)
        m.add("done", 10)
        assert m.rate("done", 3.0) == pytest.approx(5.0)
        assert m.rate("done", 1.0) == 0.0

    def test_latency_inherits_window(self):
        m = Metrics()
        m.mark_window_start(2.0)
        recorder = m.latency("rt")
        recorder.record(1.0, 99.0)
        recorder.record(3.0, 1.0)
        assert len(recorder) == 1

    def test_mark_window_resets_existing_recorders(self):
        m = Metrics()
        recorder = m.latency("rt")
        recorder.record(0.5, 10.0)
        m.mark_window_start(1.0)
        assert len(recorder) == 0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200))
def test_percentile_bounds_and_monotonicity(values):
    """Property: percentiles lie within [min, max] and are monotone in q."""
    r = LatencyRecorder()
    for v in values:
        r.record(0.0, v)
    qs = [0.0, 10.0, 50.0, 90.0, 99.0, 100.0]
    ps = [r.percentile(q) for q in qs]
    assert ps == sorted(ps)
    assert ps[0] == pytest.approx(min(values))
    assert ps[-1] == pytest.approx(max(values))


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.floats(min_value=0, max_value=1,
                                    allow_nan=False)),
                min_size=1, max_size=100))
def test_cpu_shares_sum_to_one(charges):
    """Property: category shares always sum to 1 when anything was
    charged."""
    cpu = CpuAccounting()
    for cat, amount in charges:
        cpu.charge(cat, amount)
    if cpu.total_busy() > 0:
        total = sum(cpu.category_share(c) for c in ("a", "b", "c"))
        assert total == pytest.approx(1.0)
