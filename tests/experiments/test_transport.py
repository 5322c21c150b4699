"""Tests for the columnar result transport (repro.experiments.transport).

Two load-bearing properties:

1. **Codec identity.**  ``decode_result(encode_result(r))`` rebuilds
   every ``ExperimentResult`` field exactly — float for float, dict
   order included — from any buffer source (the array itself or the
   raw bytes a worker ships).
2. **Pooled ≡ serial.**  Pooled runs, which ship every result as a
   pickled header plus inline column bytes, produce byte-identical
   results to the serial path, all the way up to a golden-pinned
   exhibit — without ever touching shared memory.
"""

import dataclasses
import pickle
from array import array
from multiprocessing import shared_memory

import pytest

from repro.experiments import parallel
from repro.experiments.config import ExperimentConfig, ExperimentResult
from repro.experiments.parallel import BatchExecutor, run_experiments
from repro.experiments.transport import decode_result, encode_result
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
    def test_round_trip_every_field(self):
        original = make_result()
        header, columns = encode_result(original)
        rebuilt = decode_result(header, columns)
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(original)
        # Dict insertion order survives too (asdict equality alone
        # would accept a reordering).
        assert list(rebuilt.percentiles) == list(original.percentiles)
        assert list(rebuilt.class_percentiles) == \
            list(original.class_percentiles)
        assert list(rebuilt.cpu_shares) == list(original.cpu_shares)
        assert list(rebuilt.fault_counters) == list(original.fault_counters)

    def test_round_trip_from_bytes(self):
        """Workers ship raw bytes; decode must accept any
        buffer-protocol source."""
        original = make_result()
        header, columns = encode_result(original)
        blob = memoryview(columns).cast("B").tobytes()
        rebuilt = decode_result(header, blob)
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(original)

    def test_round_trip_empty_collections(self):
        """A quick-mode result ships no samples, no classes, no faults."""
        original = make_result(n_latency=0, n_thread=0)
        original = dataclasses.replace(original, class_percentiles={},
                                       fault_counters={}, selector_stats=[])
        header, columns = encode_result(original)
        rebuilt = decode_result(header, columns)
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(original)
        assert rebuilt.latency_samples == []
        assert rebuilt.thread_samples == []

    def test_header_is_small_and_picklable(self):
        """The header must stay O(1) in the sample count — it rides the
        result pipe on every point."""
        small = pickle.dumps(encode_result(make_result(n_latency=10))[0],
                             pickle.HIGHEST_PROTOCOL)
        large = pickle.dumps(encode_result(make_result(n_latency=10_000))[0],
                             pickle.HIGHEST_PROTOCOL)
        # Only the count integers grow — a few bytes, not O(samples).
        assert len(large) - len(small) < 16

    def test_short_buffer_rejected(self):
        header, columns = encode_result(make_result())
        truncated = memoryview(columns).cast("B").tobytes()[:-8]
        with pytest.raises(ValueError):
            decode_result(header, truncated)

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


def _asdicts(results):
    return [dataclasses.asdict(result) for result in results]


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
        no ticket, and its header and column bytes are exactly the
        encoding of the matching serial result."""
        original = parallel._decode_payload
        payloads = []

        def capture(payload, ring):
            payloads.append(payload)
            return original(payload, ring)

        monkeypatch.setattr(parallel, "_decode_payload", capture)
        serial = run_experiments(_grid(), jobs=1)
        pooled = run_experiments(_grid(), jobs=2)
        assert _asdicts(pooled) == _asdicts(serial)
        assert len(payloads) == len(serial)
        expected = []
        for result in serial:
            header, columns = encode_result(result)
            expected.append((header, columns.tobytes()))
        shipped = []
        for header_bytes, ticket, inline in payloads:
            assert ticket is None
            assert isinstance(inline, bytes)
            shipped.append((pickle.loads(header_bytes), inline))
        # Payloads are decoded in completion order, not grid order.
        for item in expected:
            assert item in shipped


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
        two positional arguments and a ``(header_bytes, ticket, inline)``
        payload whose ticket is always ``None``; perfbench's decode hook
        wraps it exactly like this."""
        original = parallel._decode_payload
        seen = []

        def timed(payload, ring):
            header_bytes, ticket, inline = payload
            seen.append((ticket, len(header_bytes), len(inline)))
            return original(payload, ring)

        monkeypatch.setattr(parallel, "_decode_payload", timed)
        serial = run_experiments(_grid()[:2], jobs=1)
        with BatchExecutor(jobs=2) as executor:
            batch = executor.run(_grid()[:2])
        assert len(seen) == 2
        assert all(ticket is None and n_header > 0 and n_inline > 0
                   for ticket, n_header, n_inline in seen)
        assert _asdicts(batch) == _asdicts(serial)


class TestGoldenPooled:
    def test_tab2_byte_identical_over_workers(self):
        """The acceptance bar: a pooled exhibit renders byte-identical
        output to the pinned serial golden."""
        from repro.experiments import run_exhibits

        result = run_exhibits(["tab2"], quick=True, seed=42,
                              jobs=2)["tab2"]
        assert goldens.exhibit_record(result) == goldens.load("tab2")
