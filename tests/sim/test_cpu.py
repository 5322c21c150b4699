"""Unit tests for the CPU scheduler model."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.cpu import Cpu, _Job, _ThreadState
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.params import CostParams
from repro.sim.threads import SimThread


def make_cpu(cores=1, **overrides):
    sim = Simulator()
    metrics = Metrics()
    params = CostParams().with_overrides(app_cores=cores, **overrides)
    cpu = Cpu(sim, metrics, params)
    return sim, metrics, cpu


class TestBasicExecution:
    def test_single_job_takes_its_duration(self):
        sim, _m, cpu = make_cpu()
        t = SimThread(cpu)

        def proc():
            yield cpu.execute(t, 0.005)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(0.005)

    def test_zero_work_completes(self):
        sim, _m, cpu = make_cpu()
        t = SimThread(cpu)

        def proc():
            yield cpu.execute(t, 0.0)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_negative_work_rejected(self):
        _sim, _m, cpu = make_cpu()
        t = SimThread(cpu)
        with pytest.raises(ValueError):
            cpu.execute(t, -1.0)

    def test_nan_work_rejected(self):
        sim, m, cpu = make_cpu()
        t = SimThread(cpu)
        with pytest.raises(ValueError, match="negative work"):
            cpu.execute(t, math.nan)
        sim.run()
        assert sim.now == 0.0
        assert m.cpu.busy_by_category["app"] == 0.0

    def test_execute_returns_the_job_as_its_completion_event(self):
        sim, _m, cpu = make_cpu()
        t = SimThread(cpu)
        job = cpu.execute(t, 0.0025)
        assert isinstance(job, _Job)
        assert not job.triggered
        fired = []
        job.add_callback(lambda event: fired.append((event, sim.now)))
        sim.run()
        assert job.triggered and job.processed and job.ok
        assert fired == [(job, 0.0025)]

    def test_needs_at_least_one_core(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Cpu(sim, Metrics(), CostParams(), cores=0)

    def test_two_threads_share_one_core(self):
        sim, _m, cpu = make_cpu(cores=1, ctx_switch_cost=0.0,
                                ctx_cache_penalty=0.0,
                                resume_reload_fraction=0.0)
        a, b = SimThread(cpu, "a"), SimThread(cpu, "b")

        def proc(thread):
            yield cpu.execute(thread, 0.010)
            return sim.now

        pa = sim.process(proc(a))
        pb = sim.process(proc(b))
        sim.run()
        # Total work is 20 ms on one core; the later finisher ends at 20 ms.
        assert max(pa.value, pb.value) == pytest.approx(0.020)

    def test_two_threads_run_in_parallel_on_two_cores(self):
        sim, _m, cpu = make_cpu(cores=2)
        a, b = SimThread(cpu, "a"), SimThread(cpu, "b")

        def proc(thread):
            yield cpu.execute(thread, 0.010)
            return sim.now

        pa = sim.process(proc(a))
        pb = sim.process(proc(b))
        sim.run()
        assert pa.value == pytest.approx(0.010)
        assert pb.value == pytest.approx(0.010)


class TestContextSwitchAccounting:
    def test_continuation_does_not_switch(self):
        """A thread issuing back-to-back work keeps the core for free."""
        sim, m, cpu = make_cpu()
        t = SimThread(cpu)

        def proc():
            for _ in range(10):
                yield cpu.execute(t, 0.0001)

        sim.process(proc())
        sim.run()
        assert m.raw_count("cpu.app.ctx_switches") == 0

    def test_alternation_counts_switches(self):
        sim, m, cpu = make_cpu(cores=1)
        a, b = SimThread(cpu, "a"), SimThread(cpu, "b")

        def proc(thread, other_done):
            for _ in range(3):
                yield cpu.execute(thread, 0.002)  # 2 ms > quantum
            return True

        sim.process(proc(a, None))
        sim.process(proc(b, None))
        sim.run()
        assert m.raw_count("cpu.app.ctx_switches") > 0

    def test_switch_cost_charged_to_ctx_category(self):
        sim, m, cpu = make_cpu(cores=1, ctx_switch_cost=1e-6,
                               ctx_cache_penalty=0.0,
                               resume_reload_fraction=0.0)
        a, b = SimThread(cpu, "a"), SimThread(cpu, "b")

        def proc(thread):
            yield cpu.execute(thread, 0.003)

        sim.process(proc(a))
        sim.process(proc(b))
        sim.run()
        switches = m.raw_count("cpu.app.ctx_switches")
        assert m.cpu.busy_by_category["ctx_switch"] == pytest.approx(
            switches * 1e-6)

    def test_cache_penalty_grows_with_runnable_count(self):
        """More runnable threads -> costlier switches (Fig. 4 mechanism)."""
        def total_ctx_cpu(n_threads):
            sim, m, cpu = make_cpu(cores=1, ctx_switch_cost=1e-6,
                                   ctx_cache_penalty=50e-6,
                                   ctx_cache_threads=10)
            threads = [SimThread(cpu, f"t{i}") for i in range(n_threads)]

            def proc(thread):
                for _ in range(3):
                    yield cpu.execute(thread, 0.0015)

            for t in threads:
                sim.process(proc(t))
            sim.run()
            switches = m.raw_count("cpu.app.ctx_switches")
            return m.cpu.busy_by_category["ctx_switch"] / max(switches, 1)

        assert total_ctx_cpu(12) > total_ctx_cpu(2)


class TestFairnessAndLoad:
    def test_quantum_preemption_interleaves_long_jobs(self):
        sim, _m, cpu = make_cpu(cores=1, quantum=1e-3)
        a, b = SimThread(cpu, "a"), SimThread(cpu, "b")
        finish = {}

        def proc(name, thread):
            yield cpu.execute(thread, 0.005)
            finish[name] = sim.now

        sim.process(proc("a", a))
        sim.process(proc("b", b))
        sim.run()
        # With preemptive sharing both finish near 10 ms; without it, one
        # would finish at 5 ms.
        assert finish["a"] > 0.008
        assert finish["b"] > 0.008

    def test_runnable_count_tracks_queue(self):
        sim, _m, cpu = make_cpu(cores=1)
        threads = [SimThread(cpu, f"t{i}") for i in range(5)]
        for t in threads:
            cpu.execute(t, 0.010)
        assert cpu.runnable_count == 5
        sim.run()
        assert cpu.runnable_count == 0

    def test_load_snapshot_monotone(self):
        sim, _m, cpu = make_cpu()
        t = SimThread(cpu)
        cpu.execute(t, 0.010)
        sim.run(until=0.005)
        first = cpu.load_snapshot()
        sim.run(until=0.006)
        second = cpu.load_snapshot()
        assert second >= first

    def test_utilization_full_when_saturated(self):
        sim, m, cpu = make_cpu(cores=1)
        t = SimThread(cpu)
        cpu.execute(t, 1.0)
        m.mark_window_start(0.0)
        sim.run(until=0.5)
        assert cpu.utilization() == pytest.approx(1.0, abs=0.01)

    def test_work_conserving_across_cores(self):
        """No core idles while the run queue is non-empty."""
        sim, m, cpu = make_cpu(cores=2, ctx_switch_cost=0.0,
                               ctx_cache_penalty=0.0,
                               resume_reload_fraction=0.0)
        threads = [SimThread(cpu, f"t{i}") for i in range(4)]
        for t in threads:
            cpu.execute(t, 0.010)
        m.mark_window_start(0.0)
        sim.run()
        # 40 ms of work over 2 cores = done at 20 ms, 100% busy.
        assert sim.now == pytest.approx(0.020)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(min_value=1e-6, max_value=5e-3, allow_nan=False),
                min_size=1, max_size=20),
       st.integers(min_value=1, max_value=4))
def test_cpu_conserves_work(amounts, cores):
    """Property: total charged CPU equals total requested work (plus
    explicit switch overhead), and every job completes."""
    sim = Simulator()
    metrics = Metrics()
    params = CostParams().with_overrides(app_cores=cores)
    cpu = Cpu(sim, metrics, params)
    done = []
    for i, amount in enumerate(amounts):
        t = SimThread(cpu, f"t{i}")
        ev = cpu.execute(t, amount)
        ev.add_callback(lambda e: done.append(1))
    sim.run()
    assert len(done) == len(amounts)
    busy = metrics.cpu.busy_by_category
    useful = busy.get("app", 0.0)
    assert useful == pytest.approx(sum(amounts), rel=1e-9)


def _reference_slice(remaining, quantum, stint_used):
    """The slice-length rule in its ``min``/``max`` form: the reference
    that ``Cpu._run_slice``'s explicit branches must match."""
    slice_len = min(remaining, max(quantum - stint_used, 0.0))
    if slice_len <= 0.0:
        return min(remaining, quantum), 0.0
    return slice_len, stint_used


def _signed(x):
    return x, math.copysign(1.0, x)


@settings(deadline=None, max_examples=300)
@given(remaining=st.one_of(st.floats(min_value=0.0, max_value=4e-3),
                           st.sampled_from([0.0, -0.0, 5e-324, 1e-3])),
       quantum=st.one_of(st.floats(min_value=0.0, max_value=2e-3),
                         st.sampled_from([-0.0, 5e-324, 1e-3])),
       stint_used=st.one_of(st.floats(min_value=0.0, max_value=3e-3),
                            st.sampled_from([0.0, 5e-324, 1e-3])))
@example(remaining=0.0, quantum=1e-3, stint_used=0.0)   # zero-length job
@example(remaining=0.0, quantum=1e-3, stint_used=4e-4)  # ... mid-stint
@example(remaining=5e-4, quantum=1e-3, stint_used=1e-3)  # left == 0.0
@example(remaining=5e-4, quantum=-0.0, stint_used=0.0)   # left == -0.0
@example(remaining=5e-4, quantum=1e-3, stint_used=2e-3)  # left < 0
@example(remaining=1e-3 - 3e-4, quantum=1e-3, stint_used=3e-4)  # == rem
@example(remaining=1e-3, quantum=5e-324, stint_used=0.0)  # subnormal left
@example(remaining=5e-324, quantum=1e-3, stint_used=0.0)  # subnormal job
def test_slice_length_matches_min_max_rule(remaining, quantum, stint_used):
    """``_run_slice``'s branches give the floats (signed zeros included)
    and the ``stint_used`` reset of the min/max formula."""
    sim = Simulator()
    metrics = Metrics()
    cpu = Cpu(sim, metrics, CostParams().with_overrides(quantum=quantum),
              cores=1)
    state = _ThreadState(SimThread(cpu))
    job = _Job(sim, remaining, metrics.cpu.charger("app"))
    state.jobs.append(job)
    core = cpu.cores[0]
    core.stint_used = stint_used
    cpu._run_slice(core, state)
    expected_len, expected_used = _reference_slice(remaining, quantum,
                                                   stint_used)
    (when, _seq, _fn, (_core, _state, _job, slice_len)), = sim._queue
    assert _signed(slice_len) == _signed(expected_len)
    assert _signed(when) == _signed(0.0 + (0.0 + expected_len))
    assert _signed(core.stint_used) == _signed(expected_used)
