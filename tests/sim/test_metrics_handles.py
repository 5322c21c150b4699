"""Interned counter / charger handles versus the lazy string paths.

The scheduler hot path records through bound handles
(``Metrics.counter(name)`` / ``CpuAccounting.charger(category)``)
while cold paths keep calling ``metrics.add(name)`` — these tests pin
that both routes land in one coherent view, that interning migrates
(never loses or duplicates) earlier lazy counts, and that the ordering
the report layer leans on survives the handle layer.
"""

import pytest

from repro.sim.metrics import Counter, CpuAccounting, CpuCharger, Metrics


class TestCounterHandles:
    def test_handle_is_interned(self):
        metrics = Metrics()
        assert metrics.counter("x") is metrics.counter("x")

    def test_lazy_value_migrates_into_handle(self):
        metrics = Metrics()
        metrics.add("x", 3.0)
        handle = metrics.counter("x")
        assert handle.value == 3.0
        # The lazy slot is gone: no double counting in the merged view.
        assert metrics.counters == {"x": 3.0}

    def test_add_routes_to_existing_handle(self):
        metrics = Metrics()
        handle = metrics.counter("x")
        metrics.add("x", 2.0)
        handle.add(0.5)
        assert handle.value == 2.5
        assert metrics.raw_count("x") == 2.5

    def test_merged_view_spans_both_routes(self):
        metrics = Metrics()
        metrics.counter("interned").add(1.0)
        metrics.add("lazy", 2.0)
        assert metrics.counters == {"interned": 1.0, "lazy": 2.0}

    def test_interned_name_visible_at_zero(self):
        metrics = Metrics()
        metrics.counter("x")
        assert metrics.counters == {"x": 0.0}
        assert metrics.raw_count("x") == 0.0

    def test_counters_view_is_a_fresh_dict(self):
        metrics = Metrics()
        metrics.counter("x").add(1.0)
        view = metrics.counters
        view["x"] = 99.0
        view["y"] = 1.0
        assert metrics.counters == {"x": 1.0}

    def test_window_subtracts_warmup_for_both_routes(self):
        metrics = Metrics()
        metrics.counter("interned").add(4.0)
        metrics.add("lazy", 2.0)
        metrics.mark_window_start(10.0)
        metrics.counter("interned").add(1.0)
        metrics.add("lazy")
        assert metrics.count("interned") == 1.0
        assert metrics.count("lazy") == 1.0
        assert metrics.raw_count("interned") == 5.0

    def test_interning_after_window_mark_keeps_window_math(self):
        metrics = Metrics()
        metrics.add("x", 4.0)
        metrics.mark_window_start(10.0)
        metrics.counter("x").add(1.0)  # interned mid-run
        assert metrics.count("x") == 1.0

    def test_default_add_amount_is_one(self):
        counter = Counter("x")
        counter.add()
        counter.add()
        assert counter.value == 2.0


class TestChargerHandles:
    def test_charger_is_interned(self):
        acct = CpuAccounting()
        ch = acct.charger("app")
        assert isinstance(ch, CpuCharger)
        assert acct.charger("app") is ch

    def test_charge_and_handle_share_totals(self):
        acct = CpuAccounting()
        acct.charge("app", 1.0)
        acct.charger("app").add(0.5)
        assert acct.busy_by_category["app"] == 1.5
        assert acct.total_busy_ever == 1.5

    def test_negative_charge_rejected(self):
        acct = CpuAccounting()
        with pytest.raises(ValueError):
            acct.charge("app", -1.0)

    def test_nan_charge_rejected(self):
        """NaN fails ``amount < 0`` too; it must still be refused, or
        it poisons every share and the busy-time clock."""
        acct = CpuAccounting()
        with pytest.raises(ValueError, match="negative"):
            acct.charge("app", float("nan"))
        assert acct.busy_by_category == {}
        assert acct.total_busy_ever == 0.0

    def test_busy_by_category_missing_key_reads_zero(self):
        acct = CpuAccounting()
        acct.charge("app", 1.0)
        view = acct.busy_by_category
        assert view["never-charged"] == 0.0  # defaultdict semantics
        # And the probe did not leak into the accounting:
        assert "never-charged" not in acct.busy_by_category or \
            acct.busy_by_category["never-charged"] == 0.0

    def test_windowed_order_is_first_charge_order(self):
        """The harness's cpu-share report iterates ``windowed()`` and
        float-sums shares, so category order must match the order of
        first charges — including handles created before any charge."""
        acct = CpuAccounting()
        never_charged = acct.charger("idle-handle")  # interned, no add
        acct.charge("b", 1.0)
        acct.charge("a", 1.0)
        never_charged.add(0.0)  # zero first charge still links
        acct.charge("c", 1.0)
        assert list(acct.windowed()) == ["b", "a", "idle-handle", "c"]

    def test_windowed_subtracts_warmup(self):
        acct = CpuAccounting()
        acct.charge("app", 2.0)
        acct.mark_window_start(5.0)
        acct.charge("app", 1.0)
        assert acct.windowed() == {"app": 1.0}
        assert acct.total_busy() == 1.0
        assert acct.busy_by_category["app"] == 3.0  # since start of run

    def test_category_share(self):
        acct = CpuAccounting()
        acct.charge("app", 3.0)
        acct.charge("ctx_switch", 1.0)
        assert acct.category_share("app") == pytest.approx(0.75)
        assert acct.category_share("missing") == 0.0
