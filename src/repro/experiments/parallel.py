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
  so a slow point never holds up the merge of the others.
- **heaviest points first.**  Within a batch, configs are dispatched in
  descending estimated cost (simulated seconds x load) so a grid's
  expensive corner (conc=256, long windows) starts immediately instead
  of landing on an almost-drained pool; every completion carries its
  submission position, so callers never see the shuffle.
- **one result transport.**  Each worker flattens its result into a
  small pickled header plus packed float columns
  (:mod:`repro.experiments.transport`) and returns both through the
  pool's result pipe; the parent rebuilds the exact result from them.
- **serial fallback.**  ``jobs=1`` (or a single config) never touches
  multiprocessing — or the codec — at all: the configs run in-process
  through :func:`run_experiment`, keeping tests and debugging simple.
  ``jobs=1`` is the identity path pooled runs are tested against.

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
from .transport import decode_result, encode_result

__all__ = ["run_experiments", "iter_experiments", "resolve_jobs",
           "BatchExecutor"]


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


def _run_columnar(config: ExperimentConfig) -> Tuple[bytes, None, bytes]:
    """Worker entry point: run the point and flatten the result.
    Returns ``(header_bytes, None, column_bytes)``."""
    header, columns = encode_result(run_experiment(config))
    header_bytes = pickle.dumps(header, pickle.HIGHEST_PROTOCOL)
    return header_bytes, None, columns.tobytes()


# perfbench's decode_hook wraps this: 2 positional args, (header, None, inline)
def _decode_payload(payload, _unused) -> ExperimentResult:
    """Parent side: rebuild one result from a worker's payload."""
    header_bytes, _ticket, inline = payload
    return decode_result(pickle.loads(header_bytes), inline)


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
                     jobs: Optional[int] = 1) -> Iterator[Outcome]:
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
    if jobs <= 1:
        for position, config in enumerate(configs):
            try:
                yield position, run_experiment(config)
            except Exception as exc:  # noqa: BLE001 - handed to the caller
                yield position, exc
        return
    with BatchExecutor(jobs) as executor:
        yield from executor.imap(configs)


def run_experiments(configs: Iterable[ExperimentConfig],
                    jobs: Optional[int] = 1) -> List[ExperimentResult]:
    """Run every config, returning results in the order configs came in.

    ``jobs`` as for :func:`iter_experiments`.  Serial and pooled runs
    produce identical results for identical configs: each point is an
    isolated deterministic simulation keyed only by its own config
    (which carries the seed), parallel results are merged back by
    submission position, and the columnar codec is an exact
    float-for-float identity.  The first point to fail raises its
    exception.
    """
    configs = list(configs)
    with closing(iter_experiments(configs, jobs=jobs)) as outcomes:
        return _gather(outcomes, len(configs))


class BatchExecutor:
    """A spawn-context worker pool.

    Every pooled run goes through one of these: :func:`iter_experiments`
    (and so :func:`run_experiments` and the exhibit runner) opens one
    per run, and callers that want to reuse a warm pool across batches
    can hold one themselves.  Each batch's points enter the queue
    heaviest first and come back tagged with their submission position,
    so determinism never depends on completion order.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._pool = multiprocessing.get_context("spawn").Pool(
            processes=self.jobs)

    def imap(self, configs: Iterable[ExperimentConfig]) -> Iterator[Outcome]:
        """Run one batch, yielding ``(position, outcome)`` as each point
        completes (*outcome*: the result, or the exception the worker
        raised).

        Points enter the queue heaviest-first (see :func:`_config_cost`)
        and come back as columnar payloads, each decoded as soon as it
        lands.
        """
        configs = list(configs)
        done = queue.SimpleQueue()  # (position, payload, ok)
        for position in _cost_order(configs):
            self._pool.apply_async(
                _run_columnar, (configs[position],),
                callback=lambda payload, p=position: done.put(
                    (p, payload, True)),
                error_callback=lambda exc, p=position: done.put(
                    (p, exc, False)))
        for _ in configs:
            position, payload, ok = done.get()
            yield position, _decode_payload(payload, None) if ok else payload

    def run(self, configs: Iterable[ExperimentConfig]) -> List[ExperimentResult]:
        """Run one batch; results in the batch's submission order.  The
        first point to fail raises its exception."""
        configs = list(configs)
        return _gather(self.imap(configs), len(configs))

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def terminate(self) -> None:
        """Kill the workers without draining the queue (error path)."""
        self._pool.terminate()
        self._pool.join()

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
