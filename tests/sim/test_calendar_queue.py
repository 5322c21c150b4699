"""Randomized equivalence tests for the kernel's event queue.

The kernel's queue (one heap of ``(time, seq, ...)`` entries with lazy
cancellation, drained by ``run()`` and ``run(until)``) must dispatch in
exactly the ``(time, seq)`` total order of a minimal reference heap
model.  These tests drive thousands of mixed schedule/cancel operations
through the real :class:`Simulator` and through the model, and assert
identical dispatch order, dispatch times, and event counts.

The ``scale`` parametrization multiplies every delay, so the same
schedules run at nanosecond, sub-millisecond and mega-second time
magnitudes: float rounding changes which entries tie, and the
``seq`` tie-break must still give the reference order.
"""

import heapq
import random

import pytest

from repro.sim.kernel import CountdownLatch, SimulationError, Simulator

#: Delay multipliers: nanosecond, sub-millisecond and mega-second
#: time magnitudes (see module docstring).
SCALES = (1e-9, 1e-4, 1e6)


class ReferenceHeap:
    """A minimal scheduler model: one binary heap of (t, seq) entries,
    with the kernel's lazy-cancellation contract (cancelled entries are
    skipped without counting)."""

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.now = 0.0
        self.count = 0

    def schedule(self, delay, token):
        self.seq += 1
        entry = [self.now + delay, self.seq, token, True]
        heapq.heappush(self.heap, entry)
        return entry

    @staticmethod
    def cancel(entry):
        entry[3] = False

    def drain(self, trace):
        while self.heap:
            t, _seq, token, live = heapq.heappop(self.heap)
            if not live:
                continue
            self.now = t
            self.count += 1
            trace.append((t, token))


def _run_mixed_schedule(scale, seed, ops):
    """Drive an identical randomized op sequence through both kernels
    and return (sim_trace, ref_trace, sim, ref)."""
    rng = random.Random(seed)
    sim = Simulator()
    ref = ReferenceHeap()
    sim_trace, ref_trace = [], []

    def observe(event):
        sim_trace.append((sim.now, event._value))

    timeouts = []  # (sim timeout, ref entry) still cancellable
    # Mixed delay bands: same-instant bursts, microsecond to
    # millisecond service-scale delays, and second-scale far-future
    # entries, so ties and wide time spans interleave.
    bands = ((0.0, 0.0), (0.0, 5e-5), (0.0, 1e-2), (0.5, 2.0), (50.0, 90.0))
    for token in range(ops):
        action = rng.random()
        if action < 0.25 and timeouts:
            timeout, entry = timeouts.pop(rng.randrange(len(timeouts)))
            timeout.cancel()
            ref.cancel(entry)
            continue
        low, high = bands[rng.randrange(len(bands))]
        delay = rng.uniform(low, high) * scale
        timeout = sim.timeout(delay, value=token)
        timeout.add_callback(observe)
        entry = ref.schedule(delay, token)
        timeouts.append((timeout, entry))

    sim.run()
    ref.drain(ref_trace)
    return sim_trace, ref_trace, sim, ref


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("seed", [1, 7, 2026])
def test_mixed_schedule_cancel_matches_reference_heap(scale, seed):
    sim_trace, ref_trace, sim, ref = _run_mixed_schedule(scale, seed, 3500)
    assert sim_trace == ref_trace
    assert sim._event_count == ref.count
    assert sim.now == ref.now


@pytest.mark.parametrize("scale", SCALES)
def test_interleaved_run_and_schedule_matches_reference(scale):
    """Schedule in phases with run(until=...) between them, so fresh
    entries land at the current instant, just after it, and far past
    the next bound, on top of entries left pending by earlier phases."""
    rng = random.Random(99)
    sim = Simulator()
    ref = ReferenceHeap()
    sim_trace, ref_trace = [], []

    def observe(event):
        sim_trace.append((sim.now, event._value))

    token = 0
    for phase in range(8):
        for _ in range(300):
            delay = rng.choice((0.0, rng.uniform(0, 1e-3),
                                rng.uniform(0, 3.0))) * scale
            sim.timeout(delay, value=token).add_callback(observe)
            ref.schedule(delay, token)
            token += 1
        bound = sim.now + rng.uniform(0.1, 1.0) * scale
        sim.run(until=bound)
        while ref.heap and ref.heap[0][0] <= bound:
            t, _seq, tok, live = heapq.heappop(ref.heap)
            if not live:
                continue
            ref.now = t
            ref.count += 1
            ref_trace.append((t, tok))
        ref.now = bound
    sim.run()
    ref.drain(ref_trace)
    assert sim_trace == ref_trace
    assert sim._event_count == ref.count


@pytest.mark.parametrize("scale", SCALES)
def test_resize_preserves_order_under_load(scale):
    """Thousands of entries in groups of ten equal times, so the heap
    grows to full load and drains back to empty: each group dispatches
    in scheduling order, and the groups in time order."""
    sim = Simulator()
    fired = []
    total = 6000
    for i in range(total):
        # Spread over ~0.6 s times the scale, with ties every 10th entry.
        delay = (i // 10) * 1e-3 * scale
        sim.timeout(delay, value=i).add_callback(
            lambda e: fired.append((sim.now, e._value)))
    sim.run()
    assert fired == sorted(fired)
    assert [v for _t, v in fired] == sorted(
        range(total), key=lambda i: ((i // 10) * 1e-3 * scale, i))
    assert sim._event_count == total


def test_cancelled_head_does_not_advance_clock():
    sim = Simulator()
    first = sim.timeout(1.0)
    last = sim.timeout(2.0)
    first.cancel()
    sim.run()
    assert sim.now == 2.0
    assert not first.processed
    assert last.processed
    assert sim._event_count == 1


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    timeout = sim.timeout(0.5)
    sim.run()
    assert timeout.processed
    timeout.cancel()  # must not raise or un-process
    assert timeout.processed


def test_cancelled_entries_are_invisible_to_peek():
    sim = Simulator()
    doomed = sim.timeout(1.0)
    sim.timeout(3.0)
    assert sim.peek() == 1.0
    doomed.cancel()
    assert sim.peek() == 3.0


class TestCountdownLatch:
    def test_counts_down_to_trigger(self):
        sim = Simulator()
        latch = sim.latch(3)
        for i in range(3):
            assert not latch.triggered
            assert latch.remaining == 3 - i
            latch.count_down()
        assert latch.triggered
        sim.run()
        assert latch.processed

    def test_zero_count_succeeds_immediately(self):
        sim = Simulator()
        latch = sim.latch(0)
        assert latch.triggered

    def test_negative_count_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CountdownLatch(sim, -1)

    def test_overdraw_rejected(self):
        sim = Simulator()
        latch = sim.latch(1)
        latch.count_down()
        with pytest.raises(SimulationError):
            latch.count_down()

    def test_usable_as_event_callback(self):
        sim = Simulator()
        latch = sim.latch(2)
        done_at = []
        latch.add_callback(lambda e: done_at.append(sim.now))
        for delay in (1.0, 4.0):
            sim.timeout(delay).add_callback(latch.count_down)
        sim.run()
        assert done_at == [4.0]

    def test_fanout_join_with_call_later(self):
        sim = Simulator()

        def request(width):
            latch = sim.latch(width)
            for i in range(width):
                sim.call_later(0.001 * (i + 1), latch.count_down)
            yield latch
            return sim.now

        proc = sim.process(request(20))
        sim.run()
        assert proc.value == pytest.approx(0.020)


class TestCallLater:
    def test_fires_in_time_seq_order_with_timeouts(self):
        sim = Simulator()
        order = []
        sim.timeout(1.0).add_callback(lambda e: order.append("timeout"))
        sim.call_later(1.0, order.append, "call_later")
        sim.run()
        assert order == ["timeout", "call_later"]
        assert sim._event_count == 2

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_later(-0.1, lambda arg: None)

    def test_far_future_call(self):
        sim = Simulator()
        seen = []
        sim.call_later(1000.0, seen.append, 42)
        sim.run()
        assert seen == [42]
        assert sim.now == 1000.0
