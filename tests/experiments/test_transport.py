"""Tests for the pooled result format (repro.experiments.parallel).

A worker pickles its whole ``ExperimentResult`` and ships it as the
first slot of a ``(result_bytes, None, b"")`` payload; the parent
unpickles it.  The load-bearing property is **pooled ≡ serial**:
pooled results are ``repr``-identical to the serial ones — ints stay
ints, every float keeps its bits, dict order survives — including the
trace summary, flame and telemetry gauges of traced, observed runs,
all the way up to a golden-pinned exhibit, without ever touching
shared memory.
"""

import dataclasses
import pickle
from array import array
from multiprocessing import shared_memory

import pytest

from repro.experiments import parallel
from repro.experiments.config import ExperimentConfig, ExperimentResult
from repro.experiments.parallel import BatchExecutor, run_experiments
from repro.faults import FaultConfig, ResilienceConfig
from tests.experiments import goldens


def make_result(n_latency=40, n_thread=10) -> ExperimentResult:
    """A fully-populated result: every field non-trivial, deterministic."""
    qs = (50.0, 90.0, 99.0)
    return ExperimentResult(
        config=ExperimentConfig(server="doubleface", concurrency=8,
                                keep_latency_samples=True),
        throughput=123.5,
        percentiles={q: q / 100.0 for q in qs},
        class_percentiles={"lfan": {q: q * 2.0 for q in qs},
                           "sfan": {q: q * 3.0 for q in qs}},
        mean_rt=0.0125,
        cpu_utilization=0.875,
        cpu_shares={"app": 0.5, "lock": 0.25, "select": 0.25},
        ctx_switches_per_sec=4096.0,
        avg_running_threads=17.5,
        selector_stats=[{"selects": 10, "wakeups": 3}],
        selects_per_sec=250.0,
        select_cpu_share=0.0625,
        pool_spawns=12.0,
        completed=5000.0,
        window=30.0,
        thread_times=array("d", (i * 0.5 for i in range(n_thread))),
        thread_values=array("d", (float(i % 7) for i in range(n_thread))),
        latency_times=array("d", (i * 1e-3 for i in range(n_latency))),
        latency_values=array("d", (0.001 * (1 + i % 13)
                                   for i in range(n_latency))),
        fault_counters={"faults.injected": 42.0, "resilience.hedges": 7.0},
    )


class TestCodecIdentity:
    def test_row_view_properties(self):
        """The (time, value) tuple views stay available on top of the
        columnar storage — report/figures consume them unchanged."""
        result = make_result(n_latency=3, n_thread=2)
        assert result.thread_samples == [(0.0, 0.0), (0.5, 1.0)]
        assert result.latency_samples == \
            list(zip(result.latency_times, result.latency_values))


def _grid(seed=7):
    """Cheap heterogeneous grid with bulky per-point payloads: raw
    latency columns on, thread sampler on."""
    return [ExperimentConfig(server=server, concurrency=conc, fanout=3,
                             response_size=100, warmup=0.2, duration=0.4,
                             seed=seed, keep_latency_samples=True)
            for server in ("aio", "doubleface")
            for conc in (4, 16)]


def _observed_grid(seed=11):
    """Cheap traced + observed grid under a rack brown-out with
    percentile and attribution hedging, so every optional result
    section is filled."""
    faults = FaultConfig(rack_slow_racks=1, rack_slow_factor=100.0,
                         rack_slow_mean_on=0.15, rack_slow_mean_off=0.15)
    return [ExperimentConfig(
        server=server, concurrency=8, fanout=5, response_size=100,
        warmup=0.1, duration=0.15, seed=seed, trace=True, trace_sample=0.2,
        obs=True, faults=faults, replicas_per_shard=2, racks=2,
        replica_policy="ewma",
        resilience=ResilienceConfig(subquery_deadline=5e-3, max_retries=2,
                                    backoff_base=0.5e-3, backoff_cap=2e-3,
                                    hedge_percentile=95.0,
                                    hedge_policy=policy,
                                    digest_min_samples=16))
        for server, policy in (("doubleface", "attribution"),
                               ("aio", "percentile"))]


def _asdicts(results):
    return [dataclasses.asdict(result) for result in results]


def _reprs(results):
    return [repr(dataclasses.asdict(result)) for result in results]


def _refuse_shared_memory(monkeypatch):
    """Make every ``SharedMemory`` call fail; return the list of calls."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise OSError("shared memory is not available")

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
    return calls


class TestTransportEquivalence:
    def test_shm_equals_pickle_equals_serial(self, monkeypatch):
        """Pooled results equal serial ones whether or not shared memory
        is available, and pooled runs never touch it: once refused, no
        call may be made, and the results still travel pickled over the
        pool pipe."""
        serial = run_experiments(_grid(), jobs=1)
        pickled = run_experiments(_grid(), jobs=2)
        calls = _refuse_shared_memory(monkeypatch)
        no_shm = run_experiments(_grid(), jobs=2)
        assert _asdicts(pickled) == _asdicts(serial)
        assert _asdicts(no_shm) == _asdicts(serial)
        assert len(serial[0].latency_times) > 0
        assert calls == []

    def test_tiny_ring_forces_inline_fallback(self, monkeypatch):
        """Every pooled result ships inline: the worker's payload carries
        no ticket, and its first slot unpickles to a result
        ``repr``-identical to the matching serial one."""
        original = parallel._decode_payload
        payloads = []

        def capture(payload, ring):
            payloads.append(payload)
            return original(payload, ring)

        monkeypatch.setattr(parallel, "_decode_payload", capture)
        serial = run_experiments(_grid(), jobs=1)
        pooled = run_experiments(_grid(), jobs=2)
        assert _reprs(pooled) == _reprs(serial)
        assert len(payloads) == len(serial)
        assert all(ticket is None for _, ticket, _ in payloads)
        # Payloads are decoded in completion order, not grid order.
        shipped = sorted(_reprs(pickle.loads(result_bytes)
                                for result_bytes, _, _ in payloads))
        assert shipped == sorted(_reprs(serial))


class TestPooledEquivalence:
    def test_batch_executor_error_path_raises(self):
        """A point that fails in a worker surfaces its own exception,
        and the context exit tears the pool down instead of hanging."""
        poisoned = dataclasses.replace(_grid()[0],
                                       params={"no_such_param": 1})
        with pytest.raises(TypeError):
            with BatchExecutor(jobs=2) as executor:
                executor.run([poisoned])

    def test_decode_payload_contract(self, monkeypatch):
        """The pool calls ``parallel._decode_payload`` by attribute with
        two positional arguments and a three-slot payload whose ticket
        is always ``None``; perfbench's decode hook wraps it exactly
        like this and sizes the first and last slots."""
        original = parallel._decode_payload
        seen = []

        def timed(payload, ring):
            result_bytes, ticket, _inline = payload  # exactly 3 slots
            seen.append((ticket, len(result_bytes)))
            return original(payload, ring)

        monkeypatch.setattr(parallel, "_decode_payload", timed)
        serial = run_experiments(_grid()[:2], jobs=1)
        with BatchExecutor(jobs=2) as executor:
            batch = executor.run(_grid()[:2])
        assert len(seen) == 2
        assert all(ticket is None and n_bytes > 0 for ticket, n_bytes in seen)
        assert _asdicts(batch) == _asdicts(serial)

    def test_traced_observed_pool_is_repr_identical(self):
        """Trace summaries, flames, telemetry gauges, phases, fault
        counters and learned hedge delays all cross the pipe unchanged:
        pooled results are ``repr``-identical to serial ones, ints
        included."""
        serial = run_experiments(_observed_grid(), jobs=1)
        pooled = run_experiments(_observed_grid(), jobs=2)
        assert all(r.trace_summary["sampled"] > 0 and r.flame and
                   r.obs_names and r.fault_counters for r in serial)
        assert any(r.hedge_delays for r in serial)
        assert _reprs(pooled) == _reprs(serial)


class TestGoldenPooled:
    def test_tab2_byte_identical_over_workers(self):
        """The acceptance bar: a pooled exhibit renders byte-identical
        output to the pinned serial golden."""
        from repro.experiments import run_exhibits

        result = run_exhibits(["tab2"], quick=True, seed=42,
                              jobs=2)["tab2"]
        assert goldens.exhibit_record(result) == goldens.load("tab2")
