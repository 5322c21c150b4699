"""Tests for the columnar result transport (repro.experiments.transport).

Three load-bearing properties:

1. **Codec identity.**  ``decode_result(encode_result(r))`` rebuilds
   every ``ExperimentResult`` field exactly — float for float, dict
   order included — from any buffer source (the array itself, raw
   bytes, a shared-memory view).
2. **Ring correctness.**  The bump-allocator ring hands out
   non-overlapping regions, restarts only at drain points, and refuses
   (rather than corrupts) when full — the caller's inline fallback
   keeps runs correct at any ring size, including absurdly small ones.
3. **End-to-end equivalence.**  ``transport="shm"``, ``"pickle"``, and
   the serial path produce byte-identical results for the same
   configs, all the way up to a golden-pinned exhibit.
"""

import dataclasses
import pickle
from array import array

import pytest

from repro.experiments import parallel
from repro.experiments.cli import build_parser
from repro.experiments.config import ExperimentConfig, ExperimentResult
from repro.experiments.parallel import (BatchExecutor, resolve_transport,
                                        run_experiments)
from repro.experiments.transport import (ShmRing, decode_result,
                                         encode_result, shm_available)
from tests.experiments import goldens

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no shared memory here")


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
        """The inline fallback ships raw bytes; decode must accept any
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


@needs_shm
class TestShmRing:
    def test_write_view_round_trip(self):
        ring = ShmRing.create(4096)
        try:
            columns = array("d", [1.5, 2.5, 3.5])
            offset, nbytes = ring.write(columns)
            view = ring.view(offset, nbytes)
            try:
                out = array("d")
                out.frombytes(bytes(view))
                assert out == columns
            finally:
                view.release()
            ring.release(nbytes)
        finally:
            ring.destroy()

    def test_reservations_do_not_overlap(self):
        ring = ShmRing.create(4096)
        try:
            a = ring.reserve(100)
            b = ring.reserve(100)
            assert a == 0
            assert b >= 104  # 100 rounded up to the 8-byte boundary
        finally:
            ring.destroy()

    def test_full_ring_returns_none(self):
        ring = ShmRing.create(64)
        try:
            assert ring.reserve(64) == 0
            assert ring.reserve(8) is None
            assert ring.write(array("d", [1.0])) is None
            # Oversized requests fail even on an empty ring.
            assert ring.reserve(65) is None
        finally:
            ring.destroy()

    def test_restart_only_at_drain_point(self):
        ring = ShmRing.create(64)
        try:
            assert ring.reserve(40) == 0
            assert ring.reserve(24) == 40
            ring.release(40)
            # 24 bytes still outstanding: no restart, so no room.
            assert ring.reserve(40) is None
            ring.release(24)
            # Fully drained: the cursor restarts from 0.
            assert ring.reserve(40) == 0
        finally:
            ring.destroy()

    def test_destroy_idempotent_and_unlinks(self):
        from multiprocessing import shared_memory
        ring = ShmRing.create(1024)
        name = ring.spec().name
        ring.destroy()
        ring.destroy()  # second call is a no-op, not an error
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestResolveTransport:
    def test_none_picks_a_valid_transport(self):
        assert resolve_transport(None) in ("shm", "pickle")

    def test_explicit_pickle_passthrough(self):
        assert resolve_transport("pickle") == "pickle"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_transport("carrier-pigeon")

    def test_shm_degrades_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(parallel, "shm_available", lambda: False)
        assert parallel.resolve_transport("shm") == "pickle"
        assert parallel.resolve_transport(None) == "pickle"


def _grid(seed=7):
    """Cheap heterogeneous grid with bulky per-point payloads: raw
    latency columns on, thread sampler on."""
    return [ExperimentConfig(server=server, concurrency=conc, fanout=3,
                             response_size=100, warmup=0.2, duration=0.4,
                             seed=seed, keep_latency_samples=True)
            for server in ("aio", "doubleface")
            for conc in (4, 16)]


class TestTransportEquivalence:
    def test_shm_equals_pickle_equals_serial(self):
        serial = run_experiments(_grid(), jobs=1)
        shm = run_experiments(_grid(), jobs=2, transport="shm")
        pickled = run_experiments(_grid(), jobs=2, transport="pickle")
        for ours, via_shm, via_pickle in zip(serial, shm, pickled):
            want = dataclasses.asdict(ours)
            assert dataclasses.asdict(via_shm) == want
            assert dataclasses.asdict(via_pickle) == want
        assert len(serial[0].latency_times) > 0

    @needs_shm
    def test_tiny_ring_forces_inline_fallback(self):
        """A ring too small for even one point's columns: every result
        takes the inline-bytes fallback and runs stay identical."""
        serial = run_experiments(_grid(), jobs=1)
        cramped = run_experiments(_grid(), jobs=2, transport="shm",
                                  ring_bytes=256)
        for ours, theirs in zip(serial, cramped):
            assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)

    @needs_shm
    def test_batch_executor_shm_matches_serial_and_cleans_up(self):
        from multiprocessing import shared_memory
        serial = run_experiments(_grid()[:2], jobs=1)
        with BatchExecutor(jobs=2, transport="shm") as executor:
            assert executor.transport == "shm"
            name = executor._ring.spec().name
            batch = executor.run(_grid()[:2])
        for ours, theirs in zip(serial, batch):
            assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)
        # The context exit closed the pool and unlinked the segment.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    @needs_shm
    def test_batch_executor_error_path_destroys_ring(self):
        from multiprocessing import shared_memory
        poisoned = dataclasses.replace(_grid()[0],
                                       params={"no_such_param": 1})
        with pytest.raises(TypeError):
            with BatchExecutor(jobs=2, transport="shm") as executor:
                name = executor._ring.spec().name
                executor.run([poisoned])
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestCliTransportFlag:
    def test_default_is_auto(self):
        assert build_parser().parse_args([]).transport is None

    def test_accepts_both_transports(self):
        parser = build_parser()
        assert parser.parse_args(["--transport", "shm"]).transport == "shm"
        assert parser.parse_args(
            ["--transport", "pickle"]).transport == "pickle"

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--transport", "json"])


@needs_shm
class TestGoldenOverShm:
    def test_tab2_byte_identical_over_shm_workers(self):
        """The acceptance bar: a parallel shm-transport exhibit renders
        byte-identical output to the pinned serial golden."""
        from repro.experiments import run_exhibits

        result = run_exhibits(["tab2"], quick=True, seed=42, jobs=2,
                              transport="shm")["tab2"]
        assert goldens.exhibit_record(result) == goldens.load("tab2")
