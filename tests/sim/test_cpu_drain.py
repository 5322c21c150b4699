"""In-place slice ends against the run loop.

``Cpu._slice_done`` runs a CPU's back-to-back slice ends in place.  When
the heap head is one of the CPU's own slice entries, due within the
active ``run()``'s bound, it pops the entry and runs it (a *head pop*);
when a continuing thread's next slice ends strictly before the head, it
never pushes it at all (a *skipped push*).  Either way ``run()`` would
have dispatched that entry next.

Every script here runs three ways and every observable must be
float-equal (``repr``-equal):

- ``run``: ``Simulator.run``, in-place slices on;
- ``step``: a ``Simulator.step`` loop (``_bound`` is ``-inf`` outside
  ``run``, so nothing runs in place);
- ``off``: ``Simulator.run`` with ``_bound`` patched to read ``-inf``.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import cpu as cpu_module
from repro.sim.cpu import Cpu
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.params import CostParams
from repro.sim.threads import SimThread

#: Default quantum is 1 ms.
Q = CostParams().quantum

MODES = ("run", "step", "off")


def run_script(script, cores, mode, pokes=(), until=None):
    """Run *script* in *mode*; return its observables and a tally.

    *script* has one ``(start_delay, [(amount, category, gap)])`` tuple
    per thread: *gap* > 0 blocks the thread for that long after the
    job.  At each instant in *pokes* a callback schedules one more
    same-instant entry.  The tally counts slice entries pushed, entries
    popped in place, and lists every pushed slice's end time.
    """
    tally = {"pushed": 0, "popped": 0, "ends": []}
    push, pop = cpu_module.heappush, cpu_module.heappop

    def counted_push(queue, entry):
        if getattr(entry[2], "__func__", None) is Cpu._slice_done:
            tally["pushed"] += 1
            tally["ends"].append(entry[0])
        push(queue, entry)

    def counted_pop(queue):
        tally["popped"] += 1
        return pop(queue)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cpu_module, "heappush", counted_push)
        patch.setattr(cpu_module, "heappop", counted_pop)
        if mode == "off":
            patch.setattr(Simulator, "_bound",
                          property(lambda sim: -math.inf,
                                   lambda sim, value: None))
        return _run(script, cores, mode, pokes, until), tally


def _run(script, cores, mode, pokes, until):
    sim = Simulator()
    metrics = Metrics()
    cpu = Cpu(sim, metrics, CostParams(), cores=cores)
    log = []

    def runner(tid, start_delay, jobs):
        thread = SimThread(cpu)
        if start_delay:
            yield sim.timeout(start_delay)
        log.append((sim.now, tid, "start"))
        for jid, (amount, category, gap) in enumerate(jobs):
            yield cpu.execute(thread, amount, category)
            log.append((sim.now, tid, f"job{jid}"))
            if gap:
                yield sim.timeout(gap)

    for tid, (start_delay, jobs) in enumerate(script):
        sim.process(runner(tid, start_delay, jobs))

    def poke(_):
        sim.call_at(sim.now, log.append, (sim.now, -1, "poke"))

    for when in pokes:
        sim.call_at(when, poke)
    if mode == "step":
        while True:
            when = sim.peek()
            if when is None or (until is not None and when > until):
                break
            sim.step()
        if until is not None:
            sim.run(until)  # nothing left is due: only sets now = until
    else:
        sim.run(until)
    return {
        "log": log,
        # Items, not a dict: the categories' link order counts too.
        "busy": list(metrics.cpu.busy_by_category.items()),
        "ctx_switches": {name: value
                         for name, value in metrics.counters.items()
                         if name.startswith("cpu.")
                         and name.endswith(".ctx_switches")},
        "load": (cpu._load_integral, cpu._load_last_t, cpu._load_current),
        "events": sim._event_count,
        "now": sim.now,
        "seq": sim._seq,
        "pending": sorted(entry[:2] for entry in sim._queue),
    }


def assert_modes_agree(script, cores, pokes=(), until=None):
    """Run all three modes; return the ``run`` observables and the
    in-place counts ``{"popped": …, "skipped": …}``."""
    results = {mode: run_script(script, cores, mode, pokes, until)
               for mode in MODES}
    observed = {mode: repr(result) for mode, (result, _) in results.items()}
    assert observed["run"] == observed["step"]
    assert observed["off"] == observed["step"]
    run_tally, step_tally, off_tally = (results[mode][1] for mode in MODES)
    # Nothing runs in place outside run() or with the bound patched off.
    assert step_tally["popped"] == off_tally["popped"] == 0
    assert step_tally["ends"] == off_tally["ends"]
    # Every slice the reference pushed ran in place or was pushed.
    skipped = step_tally["pushed"] - run_tally["pushed"]
    assert skipped >= 0
    assert set(run_tally["ends"]) <= set(step_tally["ends"])
    return results["run"][0], {"popped": run_tally["popped"],
                               "skipped": skipped}


def slice_ends(script, cores):
    """Sorted distinct end times of every slice *script* runs."""
    _, tally = run_script(script, cores, "off")
    return sorted(set(tally["ends"]))


class TestScripted:
    def test_lone_long_job_skips_every_push_but_the_first(self):
        result, counts = assert_modes_agree([(0.0, [(5.0 * Q, "app", 0.0)])],
                                            cores=1)
        assert counts == {"popped": 0, "skipped": 4}
        assert result["log"][-1][2] == "job0"

    def test_two_cores_in_lockstep_pop_each_other(self):
        """Equal long jobs on two cores end each slice at one instant:
        the first core's next slice is not earlier than the second
        core's due slice, so it is pushed and the head is popped."""
        job = [(4.0 * Q, "app", 0.0)]
        _, counts = assert_modes_agree([(0.0, job), (0.0, job)], cores=2)
        assert counts["popped"] == 7 and counts["skipped"] == 0

    def test_preemption_hands_the_core_over_in_place(self):
        job = [(3.0 * Q, "app", 0.0)]
        result, counts = assert_modes_agree([(0.0, job), (0.0, job),
                                             (0.0, job)], cores=2)
        assert counts["popped"] > 0
        assert result["ctx_switches"]["cpu.app.ctx_switches"] > 0

    def test_poke_at_a_slice_end_blocks_the_skipped_push(self):
        script = [(0.0, [(5.0 * Q, "app", 0.0)])]
        ends = slice_ends(script, cores=1)
        _, counts = assert_modes_agree(script, cores=1, pokes=[ends[1]])
        # The slice ending at the poke's instant is pushed and
        # dispatched by the loop (the poke came first); so is the one
        # after it, which finds the poke's own entry due at the head.
        assert counts == {"popped": 0, "skipped": 2}

    def test_slice_ending_exactly_at_until_runs_in_place(self):
        script = [(0.0, [(5.0 * Q, "app", 0.0)])]
        ends = slice_ends(script, cores=1)
        result, counts = assert_modes_agree(script, cores=1, until=ends[2])
        assert counts == {"popped": 0, "skipped": 2}
        assert result["now"] == ends[2]
        assert result["pending"][0][0] == ends[3]

    def test_slice_ending_just_after_until_is_pushed(self):
        script = [(0.0, [(5.0 * Q, "app", 0.0)])]
        ends = slice_ends(script, cores=1)
        until = math.nextafter(ends[2], -math.inf)
        result, counts = assert_modes_agree(script, cores=1, until=until)
        assert counts == {"popped": 0, "skipped": 1}
        assert result["now"] == until
        assert result["pending"][0][0] == ends[2]

    def test_head_slices_at_and_just_after_until(self):
        """Two cores: one slice ends exactly at ``until`` and one the
        next float after it.  Only the first runs, popped in place."""
        amount = 2.5 * Q
        script = [(0.0, [(amount, "app", 0.0)]),
                  (0.0, [(math.nextafter(amount, math.inf), "io", 0.0)])]
        ends = slice_ends(script, cores=2)
        until = ends[-2]
        assert ends[-1] == math.nextafter(until, math.inf)
        result, counts = assert_modes_agree(script, cores=2, until=until)
        assert [entry[1:] for entry in result["log"]] == [
            (0, "start"), (1, "start"), (0, "job0")]
        assert result["pending"][0][0] == ends[-1]
        assert counts["popped"] > 0


def random_script(rng, threads):
    script = []
    for _ in range(threads):
        jobs = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.random()
            if kind < 0.15:
                amount = 0.0
            elif kind < 0.45:
                amount = rng.choice([0.25, 0.5, 0.75]) * Q
            else:
                amount = rng.choice([1.0, 1.5, 2.0, 3.25, 5.0, 8.0]) * Q
            gap = rng.choice([0.0, 0.0, 0.5 * Q, 2.0 * Q])
            jobs.append((amount, rng.choice(["app", "io"]), gap))
        script.append((rng.choice([0.0, 0.25 * Q, 1.0 * Q, 2.5 * Q]), jobs))
    return script


def check_random(rng, cores, threads, until_mode):
    script = random_script(rng, threads)
    ends = slice_ends(script, cores)
    pokes = rng.sample(ends, min(len(ends), max(1, len(ends) // 4)))
    later = [when for when in ends if when > 0.0]
    until = None
    if until_mode != "drain" and later:
        until = later[rng.randrange(len(later))]
        if until_mode == "before":
            until = math.nextafter(until, -math.inf)
    _, counts = assert_modes_agree(script, cores, pokes, until)
    return counts


class TestRandomized:
    """Seeded random scripts on 1, 2 and 4 cores: zero, sub-quantum and
    multi-quantum jobs with blocking gaps, more threads than cores
    (preemption) and no more (uncontended stints), pokes at slice
    ends, and ``until`` at a slice end or one float before it."""

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("oversubscribed", [True, False])
    def test_modes_agree(self, cores, oversubscribed):
        totals = {"popped": 0, "skipped": 0}
        for seed in range(10):
            rng = random.Random(1000 * cores + seed)
            threads = (rng.randint(cores + 1, cores + 4) if oversubscribed
                       else rng.randint(1, cores))
            until_mode = ("drain", "at", "before")[seed % 3]
            for name, count in check_random(rng, cores, threads,
                                            until_mode).items():
                totals[name] += count
        assert totals["skipped"] > 0, totals
        if cores > 1 or oversubscribed:
            assert totals["popped"] > 0, totals


_job = st.tuples(
    st.one_of(st.just(0.0),
              st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.25, 5.0])
              .map(lambda k: k * Q)),
    st.sampled_from(["app", "io"]),
    st.sampled_from([0.0, 0.5 * Q, 2.0 * Q]))
_thread = st.tuples(st.sampled_from([0.0, 0.25 * Q, 1.0 * Q, 2.5 * Q]),
                    st.lists(_job, min_size=1, max_size=4))


@settings(deadline=None, max_examples=60)
@given(cores=st.sampled_from([1, 2, 4]),
       script=st.lists(_thread, min_size=1, max_size=6),
       poke_picks=st.lists(st.integers(min_value=0), max_size=3),
       until_pick=st.one_of(st.none(),
                            st.tuples(st.integers(min_value=0),
                                      st.booleans())))
def test_modes_agree_on_generated_scripts(cores, script, poke_picks,
                                          until_pick):
    ends = slice_ends(script, cores)
    pokes = [ends[pick % len(ends)] for pick in poke_picks if ends]
    later = [when for when in ends if when > 0.0]
    until = None
    if until_pick is not None and later:
        pick, before = until_pick
        until = later[pick % len(later)]
        if before:
            until = math.nextafter(until, -math.inf)
    assert_modes_agree(script, cores, pokes, until)
