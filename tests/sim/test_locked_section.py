"""``locked_section`` against its reference composition.

``locked_section(t, mutex, hold, category)`` runs as one generator: the
CAS, the hold and the release are written out in it, and only a
contended acquire enters ``Mutex._wait``.  It must behave exactly like
the three-generator form it replaced, kept here as the reference::

    yield from mutex.acquire(t)
    if hold > 0:
        yield t.execute(hold, category)
    yield from mutex.release(t)

Every case runs the same script both ways and requires equal
``(time, thread, step)`` logs, ``mutex.*`` counters, per-category busy
floats, context switches, load integral, kernel event counts and end
time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cpu import Cpu
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.params import CostParams
from repro.sim.threads import Mutex, SimThread, locked_section

#: Default quantum is 1 ms.
Q = CostParams().quantum


def reference_section(thread, mutex, hold, category="app"):
    yield from mutex.acquire(thread)
    if hold > 0:
        yield thread.execute(hold, category)
    yield from mutex.release(thread)


def run_script(script, cores, mutexes=1, section=locked_section):
    """Run *script* with *section* as the lock-section coroutine.

    *script* has one ``(start_delay, [(lock, hold, category, work,
    gap)])`` tuple per thread: each step takes mutex number *lock* for
    *hold* seconds of *category* CPU, then runs *work* seconds of
    unlocked CPU (if > 0) and sleeps *gap* (if > 0).
    """
    sim = Simulator()
    metrics = Metrics()
    params = CostParams()
    cpu = Cpu(sim, metrics, params, cores=cores)
    locks = [Mutex(sim, cpu, metrics, params, f"m{i}")
             for i in range(mutexes)]
    log = []

    def runner(tid, start_delay, steps):
        thread = SimThread(cpu, f"t{tid}")
        if start_delay:
            yield sim.timeout(start_delay)
        log.append((sim.now, tid, "start"))
        for sid, (lock, hold, category, work, gap) in enumerate(steps):
            yield from section(thread, locks[lock], hold, category)
            log.append((sim.now, tid, f"section{sid}"))
            if work:
                yield thread.execute(work, "app")
                log.append((sim.now, tid, f"work{sid}"))
            if gap:
                yield sim.timeout(gap)

    for tid, (start_delay, steps) in enumerate(script):
        sim.process(runner(tid, start_delay, steps))
    sim.run()
    assert not any(lock.locked or lock.waiting for lock in locks)
    counters = metrics.counters
    return {
        "log": log,
        "mutex": {name: value for name, value in counters.items()
                  if name.startswith("mutex.")},
        "busy": dict(metrics.cpu.busy_by_category),
        "ctx_switches": {name: value for name, value in counters.items()
                         if name.endswith(".ctx_switches")},
        "load": cpu.load_snapshot(),
        "events": sim._event_count,
        "end": sim.now,
    }


def assert_matches_reference(script, cores, mutexes=1):
    flat = run_script(script, cores, mutexes)
    reference = run_script(script, cores, mutexes, reference_section)
    assert flat == reference
    return flat


def counter(result, name):
    return result["mutex"].get(name, 0)


class TestScripted:
    def test_uncontended(self):
        script = [(0.0, [(0, 0.5 * Q, "app", 0.0, 0.0),
                         (0, 0.0, "app", 0.0, 2.0 * Q),
                         (0, 3.0 * Q, "io", Q, 0.0)])]
        result = assert_matches_reference(script, cores=1)
        assert counter(result, "mutex.contended_total") == 0
        assert "lock" not in result["busy"]
        assert [step for _, _, step in result["log"]] == [
            "start", "section0", "section1", "section2", "work2"]

    def test_contended_wakes_waiter(self):
        # Two cores, two threads entering at once: one waits, and the
        # holder's release wakes it and pays the futex_wake.
        steps = [(0, 2.0 * Q, "app", 0.0, 0.0)]
        result = assert_matches_reference([(0.0, steps), (0.0, steps)],
                                          cores=2)
        assert counter(result, "mutex.m0.contended") == 1
        assert counter(result, "mutex.m0.barged") == 0
        assert counter(result, "mutex.wait_time_total") > 0
        assert result["busy"]["lock"] > 0

    def test_barged_waiter_waits_again(self):
        # One core: the releasing thread runs on and retakes the lock
        # before the woken waiter runs its futex return.
        steps = [(0, Q, "app", 0.0, 0.0)] * 4
        result = assert_matches_reference([(0.0, steps), (0.0, steps)],
                                          cores=1)
        assert counter(result, "mutex.m0.barged") > 0
        # The same on two cores, with a third thread in the run queue.
        steps = [(0, 0.1 * Q, "app", 0.0, 0.0)] * 4
        result = assert_matches_reference([(0.0, steps)] * 3, cores=2)
        assert counter(result, "mutex.m0.barged") > 0

    def test_many_waiters_one_wake_per_release(self):
        steps = [(0, Q, "app", 0.5 * Q, 0.0)] * 2
        script = [(i * 0.1 * Q, steps) for i in range(5)]
        result = assert_matches_reference(script, cores=3)
        assert counter(result, "mutex.m0.contended") >= 4

    def test_release_by_non_owner_rejected(self):
        sim = Simulator()
        metrics = Metrics()
        params = CostParams()
        cpu = Cpu(sim, metrics, params, cores=1)
        mutex = Mutex(sim, cpu, metrics, params, "m")
        thief = SimThread(cpu, "thief")

        def steal(_):
            mutex.owner = thief

        def holder():
            yield from locked_section(SimThread(cpu, "a"), mutex, 2.0 * Q)

        sim.process(holder())
        sim.call_later(Q, steal)
        with pytest.raises(RuntimeError, match="released by a but held "
                                               "by thief"):
            sim.run()


_step = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.sampled_from([0.0, 0.1 * Q, 0.5 * Q, Q, 2.5 * Q]),
    st.sampled_from(["app", "io"]),
    st.sampled_from([0.0, 0.0, 0.3 * Q, 1.5 * Q]),
    st.sampled_from([0.0, 0.0, 0.2 * Q, 2.0 * Q]),
)
_thread = st.tuples(st.sampled_from([0.0, 0.0, 0.05 * Q, Q]),
                    st.lists(_step, min_size=1, max_size=5))


@settings(deadline=None, max_examples=150)
@given(script=st.lists(_thread, min_size=1, max_size=6),
       cores=st.integers(min_value=1, max_value=3),
       mutexes=st.integers(min_value=1, max_value=2))
def test_random_schedules_match_reference(script, cores, mutexes):
    script = [(delay, [(lock % mutexes, hold, category, work, gap)
                       for lock, hold, category, work, gap in steps])
              for delay, steps in script]
    assert_matches_reference(script, cores, mutexes)
