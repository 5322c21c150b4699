"""Parallel experiment execution over a multiprocessing worker pool.

Every paper exhibit sweeps many independent (architecture x
concurrency/fanout x seed) points; each point is a self-contained
deterministic simulation, so the sweep is embarrassingly parallel.
:func:`run_experiments` fans a list of :class:`ExperimentConfig`\\ s out
over a spawn-context ``multiprocessing.Pool`` and returns the results
**in submission order** — the merge is keyed by the config's position,
never by completion time, so parallel runs are byte-identical to serial
ones for the same configs and seeds.

Design notes:

- **spawn, not fork.**  Workers are started with the ``spawn`` start
  method so each child imports ``repro`` fresh; no module-level state
  (RNG singletons, metrics caches) leaks from the parent, which is what
  makes ``--jobs N`` results provably equal to ``--jobs 1``.
- **one pool path.**  Every pooled run goes through
  :class:`BatchExecutor`: one ``apply_async`` per point, each
  completion decoded the moment it lands (:meth:`BatchExecutor.imap`),
  so ring space is returned as fast as workers fill it and a slow
  point never holds up the merge of the others.
- **heaviest points first.**  Within a batch, configs are dispatched in
  descending estimated cost (simulated seconds x load) so a grid's
  expensive corner (conc=256, long windows) starts immediately instead
  of landing on an almost-drained pool; every completion carries its
  submission position, so callers never see the shuffle.
- **columnar shared-memory transport** (``transport="shm"``, the
  default where ``multiprocessing.shared_memory`` works).  Workers
  flatten each result into a small header plus packed float columns
  (:mod:`repro.experiments.transport`) and memcpy the columns straight
  into a ring segment shared with the parent; only the header and an
  ``(offset, nbytes)`` ticket cross the result pipe.  The parent
  rebuilds the result from the mapped buffer — the bulk data is never
  serialised and never copied through a pipe.  A full ring degrades
  per-result to shipping the column bytes inline; both paths decode to
  byte-identical results.
- **explicit pickle protocol** (``transport="pickle"``, the fallback).
  Results cross the process boundary pre-pickled with
  ``pickle.HIGHEST_PROTOCOL`` (out-of-band, inside the worker) instead
  of the ``multiprocessing`` default, which is pinned to protocol
  2-era framing; large ``ExperimentResult`` payloads (tail exhibits
  carry thousands of latency samples) serialise measurably faster and
  smaller.
- **serial fallback.**  ``jobs=1`` (or a single config) never touches
  multiprocessing — or any transport — at all: the configs run
  in-process through :func:`run_experiment`, keeping tests and
  debugging simple.  ``jobs=1`` is the identity path both transports
  are benchmarked and tested against.

``jobs=0`` (or ``None``) means "one worker per CPU".
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
from contextlib import closing
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .config import ExperimentConfig, ExperimentResult
from .runner import run_experiment
from .transport import ShmRing, decode_result, encode_result, shm_available

__all__ = ["run_experiments", "iter_experiments", "resolve_jobs",
           "resolve_transport", "BatchExecutor", "TRANSPORTS",
           "DEFAULT_RING_BYTES"]

#: Worker→parent result transports.
TRANSPORTS = ("shm", "pickle")

#: Default shared-memory ring capacity.  A full tail point's columns
#: run to a few hundred kB; 32 MB keeps dozens outstanding before the
#: inline fallback has to kick in.
DEFAULT_RING_BYTES = 32 << 20


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: 0/None -> CPU count, else itself.

    Negative values are rejected here — at the mouth of every pool
    construction — so they can never reach ``multiprocessing.Pool``,
    which reports them as an unhelpful ``ValueError`` of its own.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def resolve_transport(transport: Optional[str]) -> str:
    """Normalise a ``--transport`` value.

    ``None`` means "shm if it works here, else pickle"; explicit
    ``"shm"`` also degrades to pickle when ``shared_memory`` is
    unavailable (some sandboxes mount no /dev/shm) rather than failing
    a run that would otherwise succeed.  Anything else is rejected.
    """
    if transport is None:
        return "shm" if shm_available() else "pickle"
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; "
                         f"valid: {', '.join(TRANSPORTS)}")
    if transport == "shm" and not shm_available():
        return "pickle"
    return transport


def _config_cost(config: ExperimentConfig) -> float:
    """Estimated relative wall-clock cost of one point: simulated
    seconds times offered load.  Only the *ordering* matters (heaviest
    dispatched first); correctness never depends on the estimate."""
    load = (config.concurrency if config.workload == "closed"
            else config.users)
    return (config.warmup + config.duration) * load


def _cost_order(configs: Sequence[ExperimentConfig]) -> List[int]:
    """Indices in descending estimated cost (ties keep submission
    order, keeping the dispatch deterministic)."""
    return sorted(range(len(configs)),
                  key=lambda i: (-_config_cost(configs[i]), i))


def _run_pickled(config: ExperimentConfig) -> bytes:
    """Worker entry point (pickle transport): run the point and pickle
    the result with the highest protocol *inside* the worker, so the
    bytes cross the pipe as-is instead of through multiprocessing's
    default pickler."""
    return pickle.dumps(run_experiment(config), pickle.HIGHEST_PROTOCOL)


#: Worker-global ring handle, set once per worker by the pool
#: initializer (spawn context: each worker imports this module fresh).
_WORKER_RING: Optional[ShmRing] = None


def _init_shm_worker(spec) -> None:
    global _WORKER_RING
    _WORKER_RING = ShmRing.attach(spec)


def _run_columnar(config: ExperimentConfig) -> Tuple[bytes, Optional[Tuple[int, int]], Optional[bytes]]:
    """Worker entry point (shm transport): run the point, flatten the
    result, and memcpy the columns into the shared ring.  Returns
    ``(header_bytes, ticket, inline)`` where exactly one of *ticket*
    (ring region) and *inline* (raw column bytes, the full-ring
    fallback) is set."""
    header, columns = encode_result(run_experiment(config))
    header_bytes = pickle.dumps(header, pickle.HIGHEST_PROTOCOL)
    ring = _WORKER_RING
    ticket = ring.write(columns) if ring is not None else None
    if ticket is None:
        return header_bytes, None, memoryview(columns).cast("B").tobytes()
    return header_bytes, ticket, None


def _decode_payload(payload, ring: Optional[ShmRing]) -> ExperimentResult:
    """Parent side of the shm transport: rebuild one result from a
    worker payload, returning its ring bytes afterwards."""
    header_bytes, ticket, inline = payload
    header = pickle.loads(header_bytes)
    if ticket is None:
        return decode_result(header, inline)
    offset, nbytes = ticket
    buf = ring.view(offset, nbytes)
    try:
        return decode_result(header, buf)
    finally:
        buf.release()
        ring.release(nbytes)


#: What a run yields per point: its submission position, and its result
#: or the exception it raised.
Outcome = Tuple[int, Union[ExperimentResult, BaseException]]


def _gather(outcomes: Iterable[Outcome], count: int) -> List[ExperimentResult]:
    """Results in submission order; the first failure is raised."""
    results: List[Optional[ExperimentResult]] = [None] * count
    for position, outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
        results[position] = outcome
    return results


def iter_experiments(configs: Iterable[ExperimentConfig],
                     jobs: Optional[int] = 1,
                     transport: Optional[str] = None,
                     ring_bytes: int = DEFAULT_RING_BYTES,
                     ) -> Iterator[Outcome]:
    """Run every config, yielding ``(position, outcome)`` as each point
    finishes: *outcome* is the point's result, or the exception it
    raised.

    ``jobs=1`` (or a single config) runs the points in-process, in
    order; ``jobs>1`` fans them over one :class:`BatchExecutor`,
    heaviest first, yielding in completion order; ``jobs=0``/``None``
    uses one worker per CPU.  Closing the generator early tears the
    pool down.
    """
    configs = list(configs)
    jobs = min(resolve_jobs(jobs), len(configs))
    transport = resolve_transport(transport)
    if jobs <= 1:
        for position, config in enumerate(configs):
            try:
                yield position, run_experiment(config)
            except Exception as exc:  # noqa: BLE001 - handed to the caller
                yield position, exc
        return
    with BatchExecutor(jobs, transport=transport,
                       ring_bytes=ring_bytes) as executor:
        yield from executor.imap(configs)


def run_experiments(configs: Iterable[ExperimentConfig],
                    jobs: Optional[int] = 1,
                    transport: Optional[str] = None,
                    ring_bytes: int = DEFAULT_RING_BYTES,
                    ) -> List[ExperimentResult]:
    """Run every config, returning results in the order configs came in.

    ``jobs`` and ``transport`` as for :func:`iter_experiments`:
    ``transport`` picks how results cross the worker→parent boundary,
    ``"shm"`` (columnar shared memory, the default where available),
    ``"pickle"``, or ``None`` = auto.  All paths produce identical
    results for identical configs: each point is an isolated
    deterministic simulation keyed only by its own config (which
    carries the seed), parallel results are merged back by submission
    position, and the columnar codec is an exact float-for-float
    identity.  The first point to fail raises its exception.
    """
    configs = list(configs)
    with closing(iter_experiments(configs, jobs=jobs, transport=transport,
                                  ring_bytes=ring_bytes)) as outcomes:
        return _gather(outcomes, len(configs))


class BatchExecutor:
    """A spawn-context worker pool plus its result transport.

    Every pooled run goes through one of these: :func:`iter_experiments`
    (and so :func:`run_experiments` and the exhibit runner) opens one
    per run, and callers that want to reuse a warm pool across batches
    can hold one themselves.  Each batch's points enter the queue
    heaviest first and come back tagged with their submission position,
    so determinism never depends on completion order.
    """

    def __init__(self, jobs: Optional[int] = None,
                 transport: Optional[str] = None,
                 ring_bytes: int = DEFAULT_RING_BYTES) -> None:
        self.jobs = resolve_jobs(jobs)
        self.transport = resolve_transport(transport)
        ctx = multiprocessing.get_context("spawn")
        self._ring: Optional[ShmRing] = None
        if self.transport == "shm":
            self._ring = ShmRing.create(ring_bytes, ctx)
            try:
                self._pool = ctx.Pool(processes=self.jobs,
                                      initializer=_init_shm_worker,
                                      initargs=(self._ring.spec(),))
            except BaseException:
                self._ring.destroy()
                raise
        else:
            self._pool = ctx.Pool(processes=self.jobs)

    def imap(self, configs: Iterable[ExperimentConfig]) -> Iterator[Outcome]:
        """Run one batch, yielding ``(position, outcome)`` as each point
        completes (*outcome*: the result, or the exception the worker
        raised).

        Points enter the queue heaviest-first (see :func:`_config_cost`)
        and come back through the executor's transport (columnar shm
        tickets, or highest-protocol pickles).  Each completion is
        decoded as soon as it lands, which on the shm path hands its
        ring bytes straight back to the workers.
        """
        configs = list(configs)
        task = _run_columnar if self._ring is not None else _run_pickled
        done = queue.SimpleQueue()  # (position, payload, ok)
        for position in _cost_order(configs):
            self._pool.apply_async(
                task, (configs[position],),
                callback=lambda payload, p=position: done.put(
                    (p, payload, True)),
                error_callback=lambda exc, p=position: done.put(
                    (p, exc, False)))
        for _ in configs:
            position, payload, ok = done.get()
            if not ok:
                yield position, payload
            elif self._ring is not None:
                yield position, _decode_payload(payload, self._ring)
            else:
                yield position, pickle.loads(payload)

    def run(self, configs: Iterable[ExperimentConfig]) -> List[ExperimentResult]:
        """Run one batch; results in the batch's submission order.  The
        first point to fail raises its exception."""
        configs = list(configs)
        return _gather(self.imap(configs), len(configs))

    def close(self) -> None:
        try:
            self._pool.close()
            self._pool.join()
        finally:
            if self._ring is not None:
                self._ring.destroy()

    def terminate(self) -> None:
        """Kill the workers without draining the queue (error path).
        The ring segment goes down with them — outstanding tickets are
        moot once the batch failed, and ``ShmRing.destroy`` unlinks the
        segment so nothing leaks into /dev/shm."""
        try:
            self._pool.terminate()
            self._pool.join()
        finally:
            if self._ring is not None:
                self._ring.destroy()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # A batch failed (e.g. a poisoned config blew up inside a
            # worker) or its consumer stopped early: close() would block
            # in join() behind every still-queued point.  Tear the
            # workers down instead; pending results are moot.
            self.terminate()
        else:
            self.close()
