"""Key partitioning across datastore shards.

The paper shards the YCSB dataset across 20 datastore nodes and varies
the fanout factor from 1 to 20 by querying that many shards per
request.  This module provides the hash partitioner, the fanout
shard-selection policy, the rack-placement rule, and the replica
selector that routes every send — initial, retry, or hedge — to a
replica within the target shard's replica set.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

__all__ = ["HashPartitioner", "pick_fanout_shards", "rack_of",
           "ReplicaSelector", "REPLICA_POLICIES"]


class HashPartitioner:
    """Stable hash partitioning of keys onto ``n_shards`` shards."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards

    def shard_for(self, key) -> int:
        """Shard index owning *key* (stable across processes/runs)."""
        digest = hashlib.md5(str(key).encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.n_shards

    def split(self, keys: Sequence) -> List[List]:
        """Partition *keys* into per-shard lists."""
        buckets: List[List] = [[] for _ in range(self.n_shards)]
        for key in keys:
            buckets[self.shard_for(key)].append(key)
        return buckets


def pick_fanout_shards(rng: random.Random, n_shards: int, fanout: int) -> List[int]:
    """Choose *fanout* distinct shards for one request.

    Matches the paper's setup: a request with fanout factor F issues one
    sub-query to each of F distinct shards.  ``fanout`` must not exceed
    the shard count.
    """
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    if fanout > n_shards:
        raise ValueError(f"fanout {fanout} exceeds shard count {n_shards}")
    if fanout == n_shards:
        return list(range(n_shards))
    return rng.sample(range(n_shards), fanout)


def rack_of(shard_id: int, replica: int, racks: int) -> int:
    """Rack holding *replica* of *shard_id* under round-robin placement.

    Consecutive replicas of a shard land in consecutive racks, so a
    shard's replica set spans ``min(replicas, racks)`` racks — the
    standard anti-affinity rule that lets failover escape a rack-wide
    fault *unless* more racks are degraded than the set spans.
    """
    if racks < 1:
        raise ValueError("need at least one rack")
    return (shard_id + replica) % racks


#: Initial-send routing policies :class:`ReplicaSelector` understands.
REPLICA_POLICIES = ("primary", "round_robin", "least_outstanding", "random",
                    "ewma")


class ReplicaSelector:
    """Routes sends to replicas within each shard's replica set.

    One selector per run, shared by every component that sends
    sub-queries: the servers' initial sends call :meth:`pick`, and the
    :class:`~repro.faults.ResiliencePolicy` calls :meth:`alternate` for
    retry/hedge targets, so concurrent hedges rotate across the replica
    set instead of stampeding one backup.

    Policies (``policy``):

    - ``primary`` — every initial send goes to replica 0 (the
      pre-replica-routing behaviour; zero bookkeeping, zero RNG).
    - ``round_robin`` — a per-shard cursor cycles the replica set.
    - ``least_outstanding`` — the replica with the fewest in-flight
      sub-queries wins (ties break toward the lowest index).  In-flight
      counts increment at pick time and decrement per real response, so
      a replica that stops answering — crashed, or drowning in a slow
      rack — accumulates outstanding work and sheds new load.
    - ``random`` — seeded uniform choice (``rng`` required).
    - ``ewma`` — the replica with the lowest exponentially-weighted
      moving average of *observed* wire-to-wire response latency wins
      (C3/Finagle-style latency-aware routing).  Each response's
      latency is ``arrival - sent_at`` — the request's wire stamp
      echoed back by the shard — so queueing behind a slow or faulted
      replica raises its score and sheds new load.  Unsampled replicas
      score 0.0 and are explored first; ties break by seeded uniform
      choice (``rng`` required).

    Determinism: the only randomness is the injected ``rng`` (a named
    :class:`~repro.sim.rng.RngStreams` stream); cursor, outstanding,
    and EWMA state advance in simulator event order, which is
    single-threaded.
    """

    #: Smoothing factor for the ``ewma`` policy: weight of the newest
    #: observation (0.2 remembers roughly the last five responses).
    EWMA_ALPHA = 0.2

    __slots__ = ("policy", "replicas", "_rng", "_cursor", "_alt_cursor",
                 "_outstanding", "_track", "_ewma")

    def __init__(self, policy: str = "primary", replicas_per_shard: int = 1,
                 rng: Optional[random.Random] = None) -> None:
        if policy not in REPLICA_POLICIES:
            raise ValueError(f"unknown replica policy {policy!r}; "
                             f"valid: {', '.join(REPLICA_POLICIES)}")
        if replicas_per_shard < 1:
            raise ValueError("need at least one replica per shard")
        if policy in ("random", "ewma") and rng is None:
            raise ValueError(f"{policy} replica policy needs an rng")
        self.policy = policy
        self.replicas = replicas_per_shard
        self._rng = rng
        self._cursor: Dict[int, int] = defaultdict(int)
        self._alt_cursor: Dict[int, int] = defaultdict(int)
        self._track = (policy == "least_outstanding"
                       and replicas_per_shard > 1)
        self._outstanding: Dict[int, List[int]] = defaultdict(
            lambda: [0] * replicas_per_shard)
        #: Per-(shard, replica) latency EWMA; 0.0 = not yet sampled.
        self._ewma: Dict[int, List[float]] = defaultdict(
            lambda: [0.0] * replicas_per_shard)

    def pick(self, shard_id: int) -> int:
        """Replica for an initial send to *shard_id* (counts it as
        in-flight under ``least_outstanding``)."""
        if self.replicas == 1 or self.policy == "primary":
            return 0
        if self.policy == "round_robin":
            cursor = self._cursor[shard_id]
            self._cursor[shard_id] = cursor + 1
            return cursor % self.replicas
        if self.policy == "random":
            return self._rng.randrange(self.replicas)
        if self.policy == "ewma":
            return self._best_ewma(shard_id, avoid=-1)
        counts = self._outstanding[shard_id]
        replica = counts.index(min(counts))
        counts[replica] += 1
        return replica

    def alternate(self, shard_id: int, avoid: int) -> int:
        """Replica for a retry/hedge of a sub-query last sent to
        *avoid*.

        With one replica there is nowhere else to go.  Otherwise the
        choice is among the *other* replicas: ``least_outstanding``
        picks the least-loaded one; every other policy rotates a shared
        per-shard cursor, so concurrent hedges on the same shard spread
        across the set instead of piling onto one backup.
        """
        if self.replicas == 1:
            return 0
        if self._track:
            counts = self._outstanding[shard_id]
            replica = min((r for r in range(self.replicas) if r != avoid),
                          key=lambda r: (counts[r], r))
            counts[replica] += 1
            return replica
        if self.policy == "ewma":
            return self._best_ewma(shard_id, avoid=avoid)
        others = [r for r in range(self.replicas) if r != avoid]
        cursor = self._alt_cursor[shard_id]
        self._alt_cursor[shard_id] = cursor + 1
        return others[cursor % len(others)]

    def _best_ewma(self, shard_id: int, avoid: int) -> int:
        """Lowest-EWMA replica of *shard_id*, excluding *avoid* (pass
        -1 to consider the full set); ties break by seeded choice."""
        scores = self._ewma[shard_id]
        candidates = [r for r in range(self.replicas) if r != avoid]
        best = min(scores[r] for r in candidates)
        ties = [r for r in candidates if scores[r] == best]
        if len(ties) == 1:
            return ties[0]
        return ties[self._rng.randrange(len(ties))]

    def note_response(self, response, now: float = 0.0) -> None:
        """Account one shard response arriving at the app server at
        simulated time *now* (no-op unless the policy tracks state).

        Synthesised failures (``failed=True``) never left a server, so
        they don't feed either tracker — a replica that swallows
        queries keeps its in-flight count (``least_outstanding``) or
        stale score (``ewma``) and sheds future load via deadline
        pressure instead.
        """
        if response.failed:
            return
        if self._track:
            counts = self._outstanding[response.shard_id]
            replica = response.replica
            if counts[replica] > 0:
                counts[replica] -= 1
            return
        if self.policy != "ewma":
            return
        sent_at = getattr(response, "sent_at", 0.0)
        if sent_at <= 0.0 or now <= sent_at:
            return
        latency = now - sent_at
        scores = self._ewma[response.shard_id]
        prev = scores[response.replica]
        if prev == 0.0:
            scores[response.replica] = latency
        else:
            scores[response.replica] = prev + self.EWMA_ALPHA * (
                latency - prev)

    def latency_score(self, shard_id: int) -> List[float]:
        """EWMA latency per replica of *shard_id* (diagnostics)."""
        return list(self._ewma[shard_id])

    def outstanding(self, shard_id: int) -> List[int]:
        """In-flight counts per replica of *shard_id* (diagnostics)."""
        return list(self._outstanding[shard_id])
