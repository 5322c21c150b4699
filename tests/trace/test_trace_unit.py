"""Unit and property tests for repro.trace: span bookkeeping,
critical-path attribution, and the exporters.

The load-bearing invariant is **float-exact additivity**: for every
trace, ``attribute`` splits the measured ``rt`` into six categories
whose canonical-order re-subtraction (``additivity_residual``) yields
exactly ``0.0`` — not approximately.  The property test hammers that
with randomized span soups; the exporter tests pin the summary shape
and the Chrome JSON schema.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import (CATEGORIES, FLAG_SYNTHESIZED, KIND_NAMES,
                         K_ASSEMBLE, K_NET_REQUEST, K_NET_RESPONSE,
                         K_PARSE, K_PROCESS, K_RETRY, K_ROOT,
                         K_SELECTOR_WAIT, K_SERVER_QUEUE, K_SERVICE,
                         Trace, Tracer, additivity_residual, attribute,
                         build_summary, chrome_trace)


class TestTracer:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tracer(random.Random(1), sample_rate=0.0)
        with pytest.raises(ValueError):
            Tracer(random.Random(1), sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(random.Random(1), keep_exemplars=0)

    def test_kinds_preinterned_in_declared_order(self):
        tracer = Tracer(random.Random(1))
        assert [k.name for k in tracer.kinds] == list(KIND_NAMES)
        assert tracer.kind("service").index == K_SERVICE
        assert tracer.kind("service") is tracer.kinds[K_SERVICE]

    def test_sampling_is_rng_deterministic(self):
        a = Tracer(random.Random(7), sample_rate=0.3)
        b = Tracer(random.Random(7), sample_rate=0.3)
        draws_a = [a.sample() for _ in range(200)]
        draws_b = [b.sample() for _ in range(200)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_sample_rate_one_samples_everything(self):
        tracer = Tracer(random.Random(7), sample_rate=1.0)
        assert all(tracer.sample() for _ in range(50))

    def test_finish_attributes_and_aggregates(self):
        tracer = Tracer(random.Random(1), sample_rate=1.0)
        trace = tracer.begin("default", now=1.0)
        trace.add(K_PARSE, 1.0, 1.002, work=0.001)
        tracer.finish(trace, rt=0.010)
        assert tracer.sampled == 1
        assert trace.breakdown is not None
        assert additivity_residual(trace.rt, trace.breakdown) == 0.0
        agg = tracer.classes()["default"]
        assert agg.count == 1
        assert agg.rt_sum == 0.010

    def test_exemplar_heap_keeps_slowest(self):
        tracer = Tracer(random.Random(1), sample_rate=1.0,
                        keep_exemplars=2)
        for i, rt in enumerate([0.005, 0.050, 0.001, 0.030]):
            tracer.finish(tracer.begin("default", now=float(i)), rt=rt)
        exemplars = tracer.exemplars("default")
        assert [t.rt for t in exemplars] == [0.050, 0.030]  # slowest first

    def test_reset_clears_aggregates_keeps_stamps(self):
        tracer = Tracer(random.Random(1), sample_rate=1.0)
        tracer.finish(tracer.begin("default", now=0.0), rt=0.01)
        marker = object()
        tracer.stamp_wait(marker, 0.5)
        tracer.reset(1.0)
        assert tracer.sampled == 0
        assert tracer.classes() == {}
        assert tracer.window_start == 1.0
        assert tracer.pop_wait(marker) == 0.5  # in-flight stamp survived

    def test_trace_of_resolves_context_then_direct(self):
        class Ctx:
            pass

        class WithContext:
            pass

        class Direct:
            pass

        trace = Trace(0, "default", 0.0)
        ctx = Ctx()
        ctx.trace = trace
        message = WithContext()
        message.context = ctx
        assert Tracer.trace_of(message) is trace
        direct = Direct()
        direct.trace = trace
        assert Tracer.trace_of(direct) is trace
        assert Tracer.trace_of(object()) is None


class _Win:
    def __init__(self, seq, attempt, shard_id, replica):
        self.seq = seq
        self.attempt = attempt
        self.shard_id = shard_id
        self.replica = replica


class TestAttribute:
    def _simple_trace(self):
        """One request, fanout 2, sub-query 1 attempt 0 wins."""
        trace = Trace(0, "default", 1.0)
        trace.add(K_PARSE, 1.000, 1.002, work=0.001)        # 1ms queue
        trace.add(K_NET_REQUEST, 1.002, 1.003, seq=0, shard=3)
        trace.add(K_NET_REQUEST, 1.002, 1.004, seq=1, shard=7)
        trace.add(K_SERVER_QUEUE, 1.004, 1.005, seq=1, shard=7)
        trace.add(K_SERVICE, 1.005, 1.008, seq=1, shard=7)
        trace.add(K_NET_RESPONSE, 1.008, 1.010, seq=1, shard=7)
        trace.add(K_SELECTOR_WAIT, 1.010, 1.011, seq=1, shard=7)
        trace.add(K_PROCESS, 1.011, 1.012, seq=1, work=0.001)
        trace.add(K_ASSEMBLE, 1.013, 1.014, work=0.001)
        trace.note_win(_Win(seq=1, attempt=0, shard_id=7, replica=0))
        trace.rt = 0.015
        trace.add(K_ROOT, 1.0, 1.0 + trace.rt)
        return trace

    def test_categories_from_known_spans(self):
        trace = self._simple_trace()
        bd = attribute(trace)
        # Chain network: seq=1 request (2ms) + response (2ms); the
        # non-critical seq=0 leg contributes nothing.
        assert bd["network"] == pytest.approx(0.004)
        assert bd["service"] == pytest.approx(0.004)  # queue 1ms + svc 3ms
        assert bd["cpu_queue"] == pytest.approx(0.001)  # parse only
        assert bd["selector_wait"] == pytest.approx(0.001)
        assert bd["retry_hedge"] == 0.0
        assert additivity_residual(trace.rt, bd) == 0.0
        assert trace.attempts == 1

    def test_retry_hedge_is_win_minus_first_send(self):
        trace = Trace(0, "default", 0.0)
        trace.add(K_NET_REQUEST, 0.010, 0.011, seq=0, attempt=0, shard=2)
        trace.point(K_RETRY, 0.020, seq=0, attempt=1, shard=2)
        trace.add(K_NET_REQUEST, 0.020, 0.021, seq=0, attempt=1, shard=2)
        trace.note_win(_Win(seq=0, attempt=1, shard_id=2, replica=1))
        trace.rt = 0.030
        trace.add(K_ROOT, 0.0, trace.rt)
        bd = attribute(trace)
        assert bd["retry_hedge"] == pytest.approx(0.010)
        assert trace.attempts == 2
        assert additivity_residual(trace.rt, bd) == 0.0

    def test_empty_trace_is_all_driver(self):
        trace = Trace(0, "default", 0.0)
        trace.rt = 0.007
        trace.add(K_ROOT, 0.0, trace.rt)
        bd = attribute(trace)
        assert bd["driver"] == 0.007
        assert additivity_residual(trace.rt, bd) == 0.0


# Randomized span soups: any combination of kinds, seqs, attempts, and
# crit stamps must satisfy exact additivity — the residual category
# construction guarantees it by algebra, the test guards the
# implementation (ordering, category coverage) against drift.
_span_strategy = st.tuples(
    st.integers(min_value=0, max_value=len(KIND_NAMES) - 1),   # kind
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),  # start
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),   # duration
    st.integers(min_value=-1, max_value=4),                     # seq
    st.integers(min_value=-1, max_value=3),                     # attempt
    st.floats(min_value=0.0, max_value=0.01, allow_nan=False),  # work
)


@settings(max_examples=200, deadline=None)
@given(spans=st.lists(_span_strategy, max_size=40),
       rt=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
       crit_seq=st.integers(min_value=-1, max_value=4),
       crit_attempt=st.integers(min_value=-1, max_value=3))
def test_additivity_is_float_exact_on_random_traces(spans, rt, crit_seq,
                                                    crit_attempt):
    trace = Trace(0, "default", 0.0)
    for kind, start, duration, seq, attempt, work in spans:
        trace.add(kind, start, start + duration, seq=seq, attempt=attempt,
                  work=work, shard=seq, replica=0)
    trace.crit_seq = crit_seq
    trace.crit_attempt = crit_attempt
    trace.rt = rt
    trace.add(K_ROOT, 0.0, rt)
    breakdown = attribute(trace)
    assert set(breakdown) == set(CATEGORIES)
    assert additivity_residual(rt, breakdown) == 0.0  # exact, not approx


def _synthetic_tracer(seed=5, n=40, keep=3):
    """A tracer filled with randomized finished traces (plain seeded
    loop; mirrors what a real run produces, minus the simulator)."""
    rng = random.Random(seed)
    tracer = Tracer(random.Random(seed + 1), sample_rate=0.5,
                    keep_exemplars=keep)
    for i in range(n):
        klass = rng.choice(["lfan", "sfan"])
        start = rng.uniform(0.0, 5.0)
        trace = tracer.begin(klass, start)
        for _ in range(rng.randrange(0, 12)):
            kind = rng.randrange(len(KIND_NAMES))
            s = start + rng.uniform(0.0, 0.01)
            trace.add(kind, s, s + rng.uniform(0.0, 0.005),
                      seq=rng.randrange(-1, 3),
                      attempt=rng.randrange(0, 2),
                      work=rng.uniform(0.0, 0.001),
                      shard=rng.randrange(0, 4),
                      replica=rng.randrange(0, 2),
                      flags=rng.choice([0, 0, 0, FLAG_SYNTHESIZED]))
        trace.note_win(_Win(seq=rng.randrange(0, 3), attempt=0,
                            shard_id=rng.randrange(0, 4),
                            replica=rng.randrange(0, 2)))
        tracer.finish(trace, rt=rng.uniform(1e-4, 0.05))
    return tracer


class TestExport:
    def test_summary_shape(self):
        summary = build_summary(_synthetic_tracer())
        assert summary["kinds"] == list(KIND_NAMES)
        assert summary["categories"] == list(CATEGORIES)
        for entry in summary["classes"].values():
            assert set(entry) == {"count", "rt_sum", "breakdown",
                                  "exemplars"}
            assert len(entry["exemplars"]) <= 3
            for exemplar in entry["exemplars"]:
                assert additivity_residual(
                    exemplar["rt"], exemplar["breakdown"]) == 0.0

    def test_chrome_trace_schema(self):
        summary = build_summary(_synthetic_tracer())
        doc = chrome_trace({"run#000": summary})
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events, "exemplars must render events"
        kinds = set(KIND_NAMES) | {"process_name", "thread_name"}
        for event in events:
            assert event["ph"] in ("M", "X", "i")
            assert event["name"] in kinds
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] > 0
                assert event["ts"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_chrome_trace_deterministic_label_order(self):
        summary = build_summary(_synthetic_tracer())
        a = chrome_trace({"b": summary, "a": summary})
        b = chrome_trace({"a": summary, "b": summary})
        assert a == b  # labels sorted, not insertion-ordered
