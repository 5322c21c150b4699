"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.kernel import (AllOf, Event, Process, SimulationError,
                              Simulator, Timeout)


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed
        assert ev.value is None

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.value == 42
        assert ev.ok

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("nope"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_records_exception(self, sim):
        ev = sim.event()
        exc = ValueError("boom")
        ev.fail(exc)
        assert ev.triggered
        assert not ev.ok
        assert ev.exception is exc

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_callbacks_run_in_registration_order(self, sim):
        ev = sim.event()
        order = []
        ev.add_callback(lambda e: order.append(1))
        ev.add_callback(lambda e: order.append(2))
        ev.succeed()
        sim.run()
        assert order == [1, 2]


class TestTimeout:
    def test_fires_at_the_right_time(self, sim):
        times = []
        t = sim.timeout(1.5)
        t.add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [1.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-0.1)

    def test_timeout_value(self, sim):
        t = sim.timeout(0.1, value="done")
        sim.run()
        assert t.value == "done"

    def test_zero_delay_fires(self, sim):
        t = sim.timeout(0.0)
        sim.run()
        assert t.processed


class TestProcess:
    def test_return_value_becomes_event_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "finished"

        p = sim.process(proc())
        sim.run()
        assert p.ok
        assert p.value == "finished"
        assert not p.is_alive

    def test_receives_event_values(self, sim):
        def proc():
            value = yield sim.timeout(0.5, value="tick")
            return value

        p = sim.process(proc())
        sim.run()
        assert p.value == "tick"

    def test_processes_interleave_in_time_order(self, sim):
        trace = []

        def proc(name, delay):
            yield sim.timeout(delay)
            trace.append((name, sim.now))

        sim.process(proc("b", 2.0))
        sim.process(proc("a", 1.0))
        sim.run()
        assert trace == [("a", 1.0), ("b", 2.0)]

    def test_waiting_on_another_process(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 99

        def parent():
            value = yield sim.process(child())
            return value + 1

        p = sim.process(parent())
        sim.run()
        assert p.value == 100

    def test_failure_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(0.1)
            raise ValueError("child died")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return f"caught {exc}"

        p = sim.process(parent())
        sim.run()
        assert p.value == "caught child died"

    def test_unobserved_failure_raises(self, sim):
        def proc():
            yield sim.timeout(0.1)
            raise RuntimeError("unobserved")

        sim.process(proc())
        with pytest.raises(RuntimeError, match="unobserved"):
            sim.run()

    def test_bad_yield_detected(self, sim):
        def proc():
            yield "not an event"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_yield_from_composition(self, sim):
        def helper():
            yield sim.timeout(0.5)
            return 10

        def proc():
            a = yield from helper()
            b = yield from helper()
            return a + b

        p = sim.process(proc())
        sim.run()
        assert p.value == 20
        assert sim.now == 1.0

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)


class TestAnyOfAllOf:
    def test_all_of_collects_in_order(self, sim):
        a = sim.timeout(2.0, value="a")
        b = sim.timeout(1.0, value="b")

        def proc():
            values = yield sim.all_of([a, b])
            return values

        p = sim.process(proc())
        sim.run()
        assert p.value == ["a", "b"]

    def test_all_of_empty_succeeds_immediately(self, sim):
        ev = AllOf(sim, [])
        sim.run()
        assert ev.ok
        assert ev.value == []

    def test_all_of_fails_on_child_failure(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        bad.fail(ValueError("bad child"))

        def proc():
            try:
                yield sim.all_of([good, bad])
            except ValueError:
                return "failed"

        p = sim.process(proc())
        sim.run()
        assert p.value == "failed"


class TestSimulatorRun:
    def test_run_until_advances_clock_exactly(self, sim):
        sim.timeout(0.25)
        sim.run(until=1.0)
        assert sim.now == 1.0

    def test_run_until_excludes_later_events(self, sim):
        seen = []
        t = sim.timeout(2.0)
        t.add_callback(lambda e: seen.append(sim.now))
        sim.run(until=1.0)
        assert seen == []
        sim.run(until=3.0)
        assert seen == [2.0]

    def test_run_until_past_rejected(self, sim):
        sim.run(until=1.0)
        with pytest.raises(ValueError):
            sim.run(until=0.5)

    def test_nan_times_rejected(self, sim):
        """A NaN time fails every comparison, so a guard spelled
        ``x < bound`` would let it into the heap, where it breaks the
        ``(time, seq)`` order."""
        nan = float("nan")
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="negative call_later delay"):
            sim.call_later(nan, print)
        with pytest.raises(ValueError, match="negative timeout delay"):
            sim.timeout(nan)
        with pytest.raises(ValueError, match="is before now"):
            sim.call_at(nan, print)
        with pytest.raises(ValueError, match="is in the past"):
            sim.run(until=nan)
        assert sim._queue == [] and sim.now == 1.0

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_peek(self, sim):
        assert sim.peek() is None
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_fifo_tie_break_is_deterministic(self, sim):
        order = []
        for i in range(10):
            t = sim.timeout(1.0, value=i)
            t.add_callback(lambda e: order.append(e.value))
        sim.run()
        assert order == list(range(10))


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False),
                       min_size=1, max_size=50))
def test_events_fire_in_nondecreasing_time_order(delays):
    """Property: no matter the scheduling order, callbacks observe a
    monotonically non-decreasing clock."""
    sim = Simulator()
    observed = []
    for d in delays:
        t = sim.timeout(d)
        t.add_callback(lambda e: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(delays=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                       min_size=1, max_size=60))
def test_tie_break_stable_under_fast_path(delays):
    """Property: event ordering is (time, seq) — among events scheduled
    for the same instant, creation order wins, no matter how ties are
    distributed.  Guards the run()-loop fast path against any change
    that would reorder the heap's tie-break."""
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        t = sim.timeout(delay)
        t.add_callback(
            lambda e, index=index, delay=delay: fired.append((delay, index)))
    sim.run()
    # Sorting the schedule by (time, creation index) must reproduce the
    # observed firing order exactly.
    expected = sorted(((d, i) for i, d in enumerate(delays)))
    assert fired == expected
    assert sim._event_count == len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=4.0,
                                 allow_nan=False),
                       min_size=1, max_size=40),
       until=st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
def test_run_until_matches_step_loop(delays, until):
    """Property: run(until=...) + run() is observationally identical to
    a manual step() loop — same firing trace, same _event_count, same
    clock.  Guards the unified run() loop against the two paths
    drifting apart."""

    def build():
        sim = Simulator()
        trace = []
        for i, d in enumerate(delays):
            sim.timeout(d).add_callback(
                lambda e, i=i: trace.append((sim.now, i)))
        return sim, trace

    fast_sim, fast_trace = build()
    fast_sim.run(until=until)
    mid_now = fast_sim.now
    fast_sim.run()

    slow_sim, slow_trace = build()
    while slow_sim.peek() is not None and slow_sim.peek() <= until:
        slow_sim.step()
    assert mid_now == until  # run(until) pins the clock
    slow_sim.now = until     # mirror the pin before draining
    while slow_sim.step():
        pass

    assert fast_trace == slow_trace
    assert fast_sim._event_count == slow_sim._event_count
    assert fast_sim.now == slow_sim.now


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=10,
                                    allow_nan=False),
                          st.integers(min_value=0, max_value=5)),
                min_size=1, max_size=30))
def test_process_chains_preserve_causality(pairs):
    """Property: a process that waits on a chain of timeouts finishes at
    exactly the sum of the delays."""
    sim = Simulator()

    def proc(delays):
        for d in delays:
            yield sim.timeout(d)
        return sim.now

    delays = [d for d, _ in pairs]
    p = sim.process(proc(delays))
    sim.run()
    assert p.value == pytest.approx(sum(delays))


class TestKernelEdgeCases:
    """Edge semantics pinned down explicitly: zero-width latches,
    zero-delay call_later ordering, and cancelling a fired Timeout."""

    def test_latch_zero_fires_immediately(self):
        """latch(0) has nothing to wait for: it is born triggered and a
        waiter resumes at the current instant without advancing time."""
        sim = Simulator()
        latch = sim.latch(0)
        assert latch.triggered
        assert latch.remaining == 0
        resumed = []

        def waiter():
            yield latch
            resumed.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert resumed == [0.0]
        assert sim.now == 0.0

    def test_latch_zero_inside_running_simulation(self):
        """A zero latch created mid-run fires at that same instant."""
        sim = Simulator()
        resumed = []

        def waiter():
            yield sim.timeout(0.5)
            yield sim.latch(0)
            resumed.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert resumed == [0.5]

    def test_call_later_zero_delay_orders_by_scheduling_seq(self):
        """call_later(0, ...) entries and other same-time events fire in
        scheduling order: ties in time break by sequence number, and the
        bare-callback fast path must honour the same total order."""
        sim = Simulator()
        fired = []
        sim.call_later(0.0, fired.append, "first-bare")
        sim.timeout(0.0).add_callback(lambda _e: fired.append("timeout"))
        sim.call_later(0.0, fired.append, "second-bare")
        sim.run()
        assert fired == ["first-bare", "timeout", "second-bare"]

    def test_call_later_same_nonzero_time_interleaves_with_timeouts(self):
        """The (time, seq) order also holds at a shared future instant
        reached through different scheduling APIs."""
        sim = Simulator()
        fired = []
        sim.timeout(0.002).add_callback(lambda _e: fired.append("t1"))
        sim.call_later(0.002, fired.append, "c1")
        sim.timeout(0.002).add_callback(lambda _e: fired.append("t2"))
        sim.call_later(0.001, fired.append, "early")
        sim.run()
        assert fired == ["early", "t1", "c1", "t2"]

    def test_cancel_already_fired_timeout_is_noop(self):
        """cancel() after the timeout fired must not raise, must not
        un-process the event, and must not disturb later events."""
        sim = Simulator()
        fired = []
        timer = sim.timeout(0.001)
        timer.add_callback(lambda _e: fired.append(sim.now))
        sim.timeout(0.002).add_callback(lambda _e: fired.append(sim.now))
        sim.run(until=0.0015)
        assert fired == [0.001]
        assert timer.processed
        count_before = sim._event_count
        timer.cancel()
        timer.cancel()  # idempotent
        sim.run()
        assert fired == [0.001, 0.002]
        assert sim._event_count == count_before + 1

    def test_cancel_before_fire_skips_without_counting(self):
        """Contrast case: cancelling a pending timeout suppresses both
        the callback and the event count."""
        sim = Simulator()
        fired = []
        timer = sim.timeout(0.001)
        timer.add_callback(lambda _e: fired.append(sim.now))
        timer.cancel()
        sim.timeout(0.002).add_callback(lambda _e: fired.append(sim.now))
        sim.run()
        assert fired == [0.002]
        assert sim._event_count == 1


def _drive(sim, mode):
    if mode == "run":
        sim.run()
    else:
        while sim.step():
            pass


@pytest.mark.parametrize("mode", ["run", "step"])
class TestDueNow:
    """``Simulator._due_now()``: is another entry due at ``now``?  Asked
    from dispatched callbacks, under run() and under a step() loop."""

    def test_idle_when_only_later_entries_pend(self, mode):
        sim = Simulator()
        seen = []
        sim.call_later(0.0, lambda _: seen.append(
            (sim._due_now(), len(sim._queue))))
        sim.timeout(1e-9)    # just after now
        sim.timeout(1e-3)
        sim.timeout(1e3)
        _drive(sim, mode)
        assert seen == [(False, 3)]

    def test_idle_when_active_list_exhausted(self, mode):
        """The dispatched entry was the last one at its instant; only a
        far later entry is left on the queue."""
        sim = Simulator()
        seen = []
        sim.timeout(0.5).add_callback(lambda _: seen.append(
            (len(sim._queue), sim._due_now())))
        sim.timeout(2e3)
        _drive(sim, mode)
        assert seen == [(1, False)]

    def test_busy_when_another_entry_is_at_now(self, mode):
        sim = Simulator()
        seen = []

        def ask(tag):
            seen.append((tag, sim._due_now()))

        def schedule_then_ask(_):
            sim.call_later(0.0, ask, "queued")
            ask("scheduler")

        sim.call_later(0.0, ask, "first")
        sim.call_later(0.0, ask, "second")
        sim.call_later(0.25, schedule_then_ask)
        _drive(sim, mode)
        assert seen == [("first", True), ("second", False),
                        ("scheduler", True), ("queued", False)]

    def test_cancelled_timeout_at_now_counts_as_due(self, mode):
        sim = Simulator()
        seen = []
        sim.call_later(0.0, lambda _: seen.append(sim._due_now()))
        sim.timeout(0.0).cancel()
        _drive(sim, mode)
        assert seen == [True]
        assert sim._event_count == 1


def test_run_and_step_loop_agree_with_inline_cpu_steps():
    """CPU completions run their step inline when nothing else is due,
    which relies on the dispatched entry being off the queue while its
    callback runs: run() and a manual step() loop must still give the
    same firing trace and the same _event_count."""
    from repro.sim.cpu import Cpu
    from repro.sim.metrics import Metrics
    from repro.sim.params import CostParams
    from repro.sim.threads import SimThread

    def build():
        sim = Simulator()
        cpu = Cpu(sim, Metrics(), CostParams(), cores=2)
        trace = []

        def worker(index):
            thread = SimThread(cpu)
            for k in range(5):
                yield cpu.execute(thread, 4e-4 * (index + 1) * (k + 1))
                trace.append((sim.now, index, k))
                if k % 2:
                    yield sim.timeout(1e-4 * index)

        for index in range(3):
            sim.process(worker(index))
        return sim, trace

    run_sim, run_trace = build()
    run_sim.run()
    step_sim, step_trace = build()
    _drive(step_sim, "step")
    assert len(run_trace) == 15
    assert run_trace == step_trace
    assert run_sim._event_count == step_sim._event_count
    assert run_sim.now == step_sim.now
