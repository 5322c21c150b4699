"""One kernel step per ``execute`` completion, inline or queued.

When an ``execute`` job finishes, :meth:`Cpu._slice_done` runs a
single step — the done event's callbacks, then the core's decision.  The step
runs inline when ``Simulator._due_now()`` says nothing else is due at
this instant, and is queued at ``(now, seq)`` otherwise.  Both branches
must give the same simulation: every run here is repeated with
``_due_now`` patched to always answer "busy", so only the queued branch
runs, and every observable must be float-equal.
"""

import random

import pytest

from repro.sim.cpu import Cpu
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.params import CostParams
from repro.sim.threads import SimThread

#: Default quantum is 1 ms.
Q = CostParams().quantum


def run_script(script, cores, pokes=(), always_busy=False):
    """Run *script*; return its observables and a tally of completion
    branches.

    *script* has one ``(start_delay, [(amount, category, gap)])`` tuple
    per thread: *gap* > 0 blocks the thread for that long after the
    job.  At each instant in *pokes* a callback schedules one more same-instant
    entry, which a completion at that instant then finds due.
    """
    tally = {"inline": 0, "queued": 0}
    due_now = Simulator._due_now

    def counted_due_now(sim):
        busy = always_busy or due_now(sim)
        tally["queued" if busy else "inline"] += 1
        return busy

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "_due_now", counted_due_now)
        return _run(script, cores, pokes), tally


def _run(script, cores, pokes):
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
    sim.run()
    return {
        "log": log,
        "busy": dict(metrics.cpu.busy_by_category),
        "ctx_switches": {name: value
                         for name, value in metrics.counters.items()
                         if name.startswith("cpu.")
                         and name.endswith(".ctx_switches")},
        "load": cpu.load_snapshot(),
        "events": sim._event_count,
        "end": sim.now,
    }


def random_script(rng, threads):
    script = []
    for _ in range(threads):
        jobs = []
        for _ in range(rng.randint(2, 6)):
            kind = rng.random()
            if kind < 0.2:
                amount = 0.0
            elif kind < 0.55:
                amount = rng.choice([0.25, 0.5, 0.75]) * Q
            else:
                amount = rng.choice([1.0, 1.5, 2.0, 3.25, 5.0, 8.0]) * Q
            gap = rng.choice([0.0, 0.0, 0.5 * Q, 2.0 * Q])
            jobs.append((amount, rng.choice(["app", "io"]), gap))
        script.append((rng.choice([0.0, 0.25 * Q, 1.0 * Q, 2.5 * Q]), jobs))
    return script


def assert_branches_agree(script, cores, pokes=()):
    natural, tally = run_script(script, cores, pokes)
    forced, forced_tally = run_script(script, cores, pokes,
                                      always_busy=True)
    assert natural == forced
    assert forced_tally["inline"] == 0
    assert forced_tally["queued"] == tally["inline"] + tally["queued"]
    return natural, tally


class TestScripted:
    def test_lone_thread_runs_every_completion_inline(self):
        script = [(0.0, [(0.5 * Q, "app", 0.0),
                         (3.0 * Q, "app", Q),
                         (0.0, "io", 0.0)])]
        result, tally = assert_branches_agree(script, cores=1)
        # The zero-length job is scheduled like the others (one slice,
        # one completion step).
        assert tally == {"inline": 3, "queued": 0}
        assert [entry[2] for entry in result["log"]] == [
            "start", "job0", "job1", "job2"]

    def test_simultaneous_completions_queue(self):
        """Two cores finishing identical jobs at one instant: the first
        completion finds the second's stint end due, and the second
        finds the first's queued step due."""
        job = [(2.0 * Q, "app", 0.0)]
        _, tally = assert_branches_agree([(0.0, job), (0.0, job)],
                                         cores=2)
        assert tally == {"inline": 0, "queued": 2}

    def test_poke_on_completion_instant_forces_queueing(self):
        script = [(0.0, [(0.5 * Q, "app", 0.0)])]
        pilot, _ = run_script(script, cores=1)
        instant = pilot["log"][-1][0]
        result, tally = assert_branches_agree(script, cores=1,
                                              pokes=[instant])
        assert tally == {"inline": 0, "queued": 1}
        # The poke was scheduled before the completion step was, so
        # it still runs first.
        assert [entry[2] for entry in result["log"]] == [
            "start", "poke", "job0"]


class TestRandomized:
    """Seeded random workloads: zero, sub-quantum and multi-quantum jobs,
    both with more threads than cores (preemption) and with no more
    threads than cores (uncontended stints)."""

    def _check(self, seed, oversubscribed):
        rng = random.Random(seed)
        cores = rng.randint(1, 3)
        threads = (rng.randint(cores + 1, cores + 4) if oversubscribed
                   else rng.randint(1, cores))
        script = random_script(rng, threads)
        pilot, _ = run_script(script, cores)
        instants = sorted({entry[0] for entry in pilot["log"]
                           if entry[2] != "start"})
        pokes = rng.sample(instants, max(1, len(instants) // 3))
        _, tally = assert_branches_agree(script, cores, pokes)
        return tally

    def _totals(self, first_seed, oversubscribed):
        totals = {}
        for seed in range(first_seed, first_seed + 12):
            for name, count in self._check(seed, oversubscribed).items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def test_more_threads_than_cores(self):
        totals = self._totals(0, oversubscribed=True)
        assert all(totals.values()), totals

    def test_no_more_threads_than_cores(self):
        totals = self._totals(100, oversubscribed=False)
        assert totals["inline"] and totals["queued"], totals
