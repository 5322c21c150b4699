"""Pins of the sliced CPU schedule.

Every multi-quantum job runs as per-quantum slices.  These cases pin
each scripted and randomized workload's observables — completion
instants, mid-run probes, counters, per-category busy seconds, the
windowed shares, the time-weighted load integral and the end time —
to the exact ``repr`` of the values, recorded (as a SHA-256) when an
uncontended-stint shortcut still existed and agreed with the sliced
schedule float for float.  Any change to slice arithmetic, charge
order or preemption shows up here as a changed digest.
"""

import hashlib
import random

from repro.sim.cpu import Cpu
from repro.sim.kernel import Simulator
from repro.sim.metrics import Metrics
from repro.sim.params import CostParams
from repro.sim.threads import SimThread

#: Default quantum is 1 ms; amounts below span 1..12 quanta.
Q = CostParams().quantum


def run_workload(script, cores=2, probe_times=(), window_at=None):
    """Run *script* and capture every scheduler observable.

    *script* is one ``(start_delay, [(amount, category), ...])`` tuple
    per thread.  *probe_times* are instants at which mid-run state is
    sampled, some of them in the middle of a multi-quantum stint.
    *window_at* marks the measurement window at
    that instant, like the harness's warm-up cut.
    """
    sim = Simulator()
    metrics = Metrics()
    cpu = Cpu(sim, metrics, CostParams(), cores=cores)
    completions = []
    probes = []

    def runner(tid, start_delay, jobs):
        thread = SimThread(cpu)
        if start_delay:
            yield sim.timeout(start_delay)
        for jid, (amount, category) in enumerate(jobs):
            yield cpu.execute(thread, amount, category)
            completions.append((tid, jid, sim.now))

    for tid, (start_delay, jobs) in enumerate(script):
        sim.process(runner(tid, start_delay, jobs))

    def probe(_):
        acct = metrics.cpu
        probes.append((sim.now, acct.total_busy_ever,
                       dict(acct.busy_by_category),
                       cpu.load_snapshot(), cpu.runnable_count))

    for when in probe_times:
        sim.call_later(when, probe)
    if window_at is not None:
        sim.call_later(window_at,
                       lambda _: metrics.mark_window_start(sim.now))
    sim.run()
    acct = metrics.cpu
    return {
        "completions": completions,
        "probes": probes,
        "counters": metrics.counters,
        "busy": dict(acct.busy_by_category),
        "total_busy_ever": acct.total_busy_ever,
        "windowed": acct.windowed(),
        "load_integral": cpu.load_snapshot(),
        "end_time": sim.now,
    }


def assert_pinned(digest, script, **kw):
    """Run *script* and assert the SHA-256 of its observables' ``repr``
    equals *digest*."""
    result = run_workload(script, **kw)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == digest
    return result


class TestScriptedIdentity:
    def test_single_long_job(self):
        result = assert_pinned(
            "77619dc86698e598e56a30c5250a7afb62f67b5e2486547fa90c1b3a5dbe9ed0",
            [(0.0, [(8 * Q, "app")])], cores=1)
        assert len(result["completions"]) == 1

    def test_sub_quantum_job_and_exact_quantum_job(self):
        assert_pinned(
            "632e5e6c6e91f66d168b4186e4576e62f82a1d69bf3f6ed4071a930303d57cbc",
            [(0.0, [(0.4 * Q, "app"), (Q, "app")])], cores=1)

    def test_parallel_uncontended_threads(self):
        assert_pinned(
            "cde56cdab3db7827370a66712ef1702c10aac64ddc05d8cc980e88f12f7ba174",
            [(0.0, [(8 * Q, "app")]), (0.0, [(11 * Q, "io")])], cores=2)

    def test_decoalesce_on_midstint_arrival(self):
        """A second thread waking mid-stint preempts the long job on
        its quantum boundary."""
        assert_pinned(
            "cd9fa43dbdf25f7fb1115bbcfeb43ed6770e1695c1b6dcba11bdbe7d800e8add",
            [(0.0, [(10 * Q, "app")]), (3.5 * Q, [(4 * Q, "app")])],
            cores=1)

    def test_decoalesce_then_recoalesce(self):
        """After the interloper finishes, the long job runs its
        remaining quanta uncontended again."""
        assert_pinned(
            "1a7e38cb5d1d6c6df9344951301689f9ca34ea68c6aa5d20e0b3a5d1245b0073",
            [(0.0, [(12 * Q, "app")]), (2.3 * Q, [(0.5 * Q, "app")])],
            cores=1)

    def test_three_threads_two_cores_staggered(self):
        assert_pinned(
            "2fd2f1f36432de3624556ab62aee9d653a2b68f3120c49b746523f2c30c00444",
            [(0.0, [(6 * Q, "app"), (3 * Q, "app")]),
             (0.7 * Q, [(9 * Q, "io")]),
             (4.1 * Q, [(5 * Q, "app")])], cores=2)

    def test_back_to_back_jobs_same_thread(self):
        assert_pinned(
            "a14ec3fc7f18395c347ab28511b2ed3d58a028e97da77c91425fd3e017f59203",
            [(0.0, [(3 * Q, "app"), (5 * Q, "io"), (2 * Q, "app")])],
            cores=1)

    def test_zero_amount_jobs_interleaved(self):
        assert_pinned(
            "a10d63deb34167ab2d4da61de973e926e9dab62f27729a8b8c8779fb1155c803",
            [(0.0, [(3 * Q, "app"), (0.0, "app"), (4 * Q, "app")]),
             (1.2 * Q, [(0.0, "io"), (2 * Q, "io")])], cores=1)


class TestMidStintObservation:
    def test_probes_inside_coalesced_stint(self):
        """Reads of busy time in the middle of a multi-quantum stint
        see the slices charged so far."""
        result = assert_pinned(
            "5907cb26ecb2d8cb11ea8772a7bcaab8131085ae9d05e2c443fa4de719963876",
            [(0.0, [(10 * Q, "app")])], cores=1,
            probe_times=[1.5 * Q, 4.6 * Q, 7.25 * Q])
        assert len(result["probes"]) == 3
        # The probes really did observe partial progress.
        busies = [p[1] for p in result["probes"]]
        assert busies == sorted(busies)
        assert 0.0 < busies[0] < busies[-1] < 10 * Q

    def test_probes_with_two_cpus_interleaved_stints(self):
        assert_pinned(
            "442a8ed3faee961f15e698a27fee075e7ffd7c2f50e12e5c92be29e192bd17eb",
            [(0.0, [(9 * Q, "app")]), (0.25 * Q, [(7 * Q, "io")])],
            cores=2, probe_times=[2.45 * Q, 5.1 * Q])

    def test_window_mark_inside_stint(self):
        """The harness's warm-up cut can land mid-stint; the windowed
        share excludes the slices charged before it."""
        result = assert_pinned(
            "3dbf59a50734d8830895bea39a71a4a0ade566d31521eac00b45d68166dfde91",
            [(0.0, [(10 * Q, "app"), (4 * Q, "app")])], cores=1,
            window_at=6.5 * Q)
        assert result["windowed"]["app"] < result["busy"]["app"]


class TestZeroFastPath:
    def _run(self, with_zeros):
        sim = Simulator()
        metrics = Metrics()
        cpu = Cpu(sim, metrics, CostParams(), cores=1)
        thread = SimThread(cpu)

        def proc():
            yield cpu.execute(thread, 2 * Q, "app")
            if with_zeros:
                for _ in range(50):
                    yield cpu.execute(thread, 0.0, "app")
            yield cpu.execute(thread, 3 * Q, "app")

        sim.process(proc())
        sim.run()
        return sim, metrics, cpu

    def test_zero_work_leaves_accounting_unchanged(self):
        """Zero-length executes between real jobs must not add context
        switches, busy time, or load-integral area."""
        _, m_plain, cpu_plain = self._run(with_zeros=False)
        _, m_zeros, cpu_zeros = self._run(with_zeros=True)
        assert m_zeros.counters == m_plain.counters
        assert dict(m_zeros.cpu.busy_by_category) == \
            dict(m_plain.cpu.busy_by_category)
        assert cpu_zeros.load_snapshot() == cpu_plain.load_snapshot()

    def test_zero_work_same_instant(self):
        sim = Simulator()
        metrics = Metrics()
        cpu = Cpu(sim, metrics, CostParams(), cores=1)
        thread = SimThread(cpu)
        instants = []

        def proc():
            yield cpu.execute(thread, 0.0, "app")
            instants.append(sim.now)

        sim.process(proc())
        sim.run()
        assert instants == [0.0]

    def test_fall_through_when_core_owes_a_switch(self):
        """When the only idle core last ran another thread, the zero
        execute takes the scheduled path and pays the context switch,
        exactly as before the fast path existed."""
        sim = Simulator()
        metrics = Metrics()
        cpu = Cpu(sim, metrics, CostParams(), cores=1)
        a, b = SimThread(cpu), SimThread(cpu)
        done = []

        def warm():
            yield cpu.execute(a, Q, "app")
            done.append("a")

        def zero():
            yield sim.timeout(2 * Q)  # after A finished: core.last_thread is A
            yield cpu.execute(b, 0.0, "app")
            done.append("b")

        sim.process(warm())
        sim.process(zero())
        sim.run()
        assert done == ["a", "b"]
        assert metrics.counters["cpu.app.ctx_switches"] == 1.0
        assert metrics.cpu.busy_by_category["ctx_switch"] > 0.0


#: SHA-256 of each randomized draw's observables, by seed offset.
_RANDOM_DIGESTS = (
    "e088f73d33856d33712bf3fb0b666e16989a61deba3bf3930e589b311e1fbbc5",
    "bc513fba2af70e0a6b7dad99db58b0c0c7ec4cb6a5044bd8b8945609435ecb81",
    "21bcc7c4035164b380ed82b71eaaf4b5248dc8a65ece2456df66218537f1a59e",
    "00f35865ea5c2e0d776777cdee75ae9c849f42887329d9ae90c28a7052da8f4d",
    "4cbcf035ec3f106286108bc2c49fdbd1b8d88c80174bf6ead36d6fc85a0fb772",
    "375a6bd2d32cd218ad7c98543388d90d02f34b21058988a377cb5cee0eac3817",
    "a743f82f8f7d17e7403d7d1d5a9ff1a5e922ca35e4552e25556e2719335ed900",
    "a43ee4f8dbace2249dabcca515f34109a8e40c5f9fd54d92c063a2f939e5ab71",
    "2ca4265b5420b0891e3c52dd346b37aebf8b5a4965b98db0715249bd00cc2e57",
    "a8d908a00860ae14fc3aaa4cc58c405a90ecdb425a1fafe34d2adb464dcea821",
    "3d6165459365c615d108f562ac4a354c217457a946cfc0689b828502dc38f106",
    "db83bf88d5a28e65b520ba0b5dde15e59830acf60efd7efd2664038954252e7a",
)


class TestRandomizedIdentity:
    def test_random_workloads_match_slice_for_slice(self):
        """Fuzz the schedule space: random thread counts, stagger,
        core counts, categories, and amounts spanning zero, sub-, and
        multi-quantum jobs.  Every draw must match its pinned digest."""
        for seed, digest in enumerate(_RANDOM_DIGESTS):
            rng = random.Random(1000 + seed)
            cores = rng.randint(1, 3)
            script = []
            for _ in range(rng.randint(1, 5)):
                jobs = []
                for _ in range(rng.randint(1, 4)):
                    kind = rng.random()
                    if kind < 0.15:
                        amount = 0.0
                    elif kind < 0.45:
                        amount = rng.uniform(0.05, 0.999) * Q
                    else:
                        amount = rng.uniform(1.0, 12.0) * Q
                    jobs.append((amount, rng.choice(["app", "io"])))
                script.append((rng.uniform(0.0, 6.0) * Q, jobs))
            probe_times = sorted(rng.uniform(0.5, 15.0) * Q
                                 for _ in range(3))
            assert_pinned(digest, script, cores=cores,
                          probe_times=probe_times)
