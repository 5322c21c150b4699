"""A fixed pure-Python kernel that measures how fast the machine runs
Python right now.

Shared machines drift: on a 2-vCPU cloud box the same simulation took
anywhere from 0.175 s to 0.42 s over a 100 s trace, in slow spells
lasting ten seconds or more.  Timing this kernel next to every point
lets the benchmark divide the drift out.  The kernel imitates the
simulator's instruction mix (a heap of timed events, generator
resumption, small slotted objects, dict counters, float arithmetic)
but shares no code with it, so no change to ``src/`` can move it.
"""

from __future__ import annotations

import heapq
import time

#: Seconds the kernel takes on the reference machine when it is not
#: slowed down: 2-vCPU x86-64 VM, CPython 3.11.  Scaled times read as
#: wall seconds at that reference speed.
REFERENCE_S = 0.05


class _Event:
    __slots__ = ("t", "k", "log")

    def __init__(self, t: float, k: int) -> None:
        self.t = t
        self.k = k
        self.log = []


def _process():
    acc = 0.0
    while True:
        event = yield
        acc += event.t * 0.5
        event.log.append(acc)


def kernel(steps: int = 36000) -> int:
    heap, counts, seq = [], {}, 0
    procs = [_process() for _ in range(256)]
    for k, proc in enumerate(procs):
        next(proc)
        seq += 1
        heapq.heappush(heap, (k * 1e-4, seq, _Event(k * 1e-4, k)))
    for _ in range(steps):
        t, _seq, event = heapq.heappop(heap)
        procs[event.k].send(event)
        name = "k%d" % (event.k & 31)
        counts[name] = counts.get(name, 0) + len(event.log)
        seq += 1
        later = t + 1e-4 * ((event.k * 7 + seq) % 13 + 1)
        heapq.heappush(heap, (later, seq, _Event(later, event.k)))
    return sum(counts.values())


def seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
