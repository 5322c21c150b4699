"""Assembly of a sharded datastore cluster.

The paper's downstream tier is 20 datastore nodes holding one shard
each.  :class:`DatastoreCluster` builds the shard servers with
heterogeneous speed factors, routes keys via the hash partitioner, and
hands out connections (local-LAN latency, or remote latency for the
Amazon-DynamoDB-style cluster).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..sim.kernel import Simulator
from ..sim.metrics import Metrics
from ..sim.network import Connection, Endpoint
from ..sim.params import CostParams
from ..sim.rng import RngStreams
from .records import RecordSchema
from .server import ShardServer
from .sharding import HashPartitioner, ReplicaSelector, rack_of

__all__ = ["DatastoreCluster"]


class DatastoreCluster:
    """A set of shard servers plus routing metadata."""

    def __init__(self, sim: Simulator, metrics: Metrics, params: CostParams,
                 rng_streams: RngStreams, n_shards: int = 20,
                 large_shards: bool = False, remote: bool = False,
                 schema: Optional[RecordSchema] = None,
                 name: str = "datastore", replicas_per_shard: int = 1,
                 racks: int = 1, replica_policy: str = "primary",
                 faults: Optional[Any] = None,
                 cross_rack_extra_latency: float = 0.0) -> None:
        if n_shards < 1:
            raise ValueError("cluster needs at least one shard")
        if replicas_per_shard < 1:
            raise ValueError("need at least one replica per shard")
        if racks < 1:
            raise ValueError("cluster needs at least one rack")
        if not (cross_rack_extra_latency >= 0):  # also rejects NaN
            raise ValueError("cross_rack_extra_latency must be >= 0")
        self.sim = sim
        self.metrics = metrics
        self.params = params
        self.name = name
        self.remote = remote
        self.replicas_per_shard = replicas_per_shard
        #: Rack count for correlated-fault topology; replica *r* of
        #: shard *s* lives in rack :func:`rack_of(s, r, racks)`.
        self.racks = racks
        #: The application server sits in rack 0: connections to
        #: replicas placed in *other* racks pay this much additional
        #: one-way latency (spine-crossing RTT asymmetry).  The 0.0
        #: default keeps every connection identical to the flat
        #: topology.
        self.cross_rack_extra_latency = cross_rack_extra_latency
        #: Optional :class:`~repro.faults.FaultSchedule` threaded into
        #: every shard server and app<->shard connection.
        self.faults = faults
        #: Replica connections by (receive endpoint, shard, replica);
        #: see :meth:`replica_connection`.
        self._replica_conns: Dict[Tuple[Endpoint, int, int], Connection] = {}
        #: Shared :class:`~repro.datastore.sharding.ReplicaSelector`
        #: consulted by every driver's initial sends and by the
        #: resilience policy's retries/hedges.  Only the ``random`` and
        #: ``ewma`` policies draw randomness, from their own named
        #: stream, so ``primary`` (the default) leaves every existing
        #: stream's draw sequence untouched.
        self.replica_selector = ReplicaSelector(
            replica_policy, replicas_per_shard,
            rng=(rng_streams.stream(f"{name}.replica_select")
                 if replica_policy in ("random", "ewma") else None))
        self.partitioner = HashPartitioner(n_shards)
        size_factor = params.large_shard_factor if large_shards else 1.0
        spread_lo, spread_hi = params.shard_speed_spread
        speed_rng = rng_streams.stream(f"{name}.shard_speeds")
        # Replica speed factors come from a separate stream so the
        # primaries' speeds (and every downstream draw) stay identical
        # to a replicas_per_shard=1 run.
        replica_speed_rng = (rng_streams.stream(f"{name}.replica_speeds")
                             if replicas_per_shard > 1 else None)
        #: ``replica_sets[shard][r]`` — every replica server; replica 0
        #: is the primary, also exposed as ``shards[shard]``.
        self.replica_sets: List[List[ShardServer]] = []
        self.shards: List[ShardServer] = []
        for shard_id in range(n_shards):
            speed = speed_rng.uniform(spread_lo, spread_hi)
            replicas: List[ShardServer] = []
            for r in range(replicas_per_shard):
                if r == 0:
                    rng_name = f"{name}.shard.{shard_id}.service"
                    rspeed = speed
                    rname = f"{name}-{shard_id}"
                else:
                    rng_name = f"{name}.shard.{shard_id}.replica{r}.service"
                    rspeed = replica_speed_rng.uniform(spread_lo, spread_hi)
                    rname = f"{name}-{shard_id}-r{r}"
                replicas.append(ShardServer(
                    sim, metrics, params, shard_id,
                    rng_streams.stream(rng_name),
                    speed_factor=rspeed, size_factor=size_factor,
                    schema=schema, name=rname, replica=r,
                    rack=rack_of(shard_id, r, racks), faults=faults))
            self.replica_sets.append(replicas)
            self.shards.append(replicas[0])

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def connection_latency(self, shard_id: int = -1,
                           replica: int = 0) -> float:
        """One-way latency from the app server to one cluster server.

        With the default arguments (or ``cross_rack_extra_latency`` at
        its 0.0 default) this is the flat cluster-wide latency; given a
        placement it adds the cross-rack penalty when the target
        replica's rack is not rack 0, the application server's.
        """
        latency = self.params.net_latency
        if self.remote:
            latency += self.params.remote_extra_latency
        if (self.cross_rack_extra_latency > 0.0 and shard_id >= 0
                and rack_of(shard_id, replica % self.replicas_per_shard,
                            self.racks) != 0):
            latency += self.cross_rack_extra_latency
        return latency

    def connect_shard(self, shard_id: int, replica: int = 0) -> Connection:
        """Open a connection to *shard_id*; caller attaches side ``a``.

        ``replica`` picks a server in the shard's replica set (modulo
        the set size, so failover rotation never indexes out of range).
        """
        server = self.replica_sets[shard_id][replica % self.replicas_per_shard]
        return server.accept(
            latency=self.connection_latency(shard_id, replica))

    def replica_connection(self, endpoint: Endpoint, shard_id: int,
                           replica: int) -> Connection:
        """The connection to (*shard_id*, *replica*) whose side ``a``
        is *endpoint*, opened on first use.

        Routed initial sends and retries/hedges that leave the primary
        share it, so a replica's responses surface on the endpoint
        where the primary's do.
        """
        key = (endpoint, shard_id, replica)
        conn = self._replica_conns.get(key)
        if conn is None:
            conn = self.connect_shard(shard_id, replica)
            conn.attach("a", endpoint)
            self._replica_conns[key] = conn
        return conn

    def load(self, items: Iterable[Tuple[str, bytes]]) -> int:
        """Materialise *items* across shards by hash; returns count."""
        count = 0
        for key, value in items:
            shard_id = self.partitioner.shard_for(key)
            # Full replication within the shard's replica set, so a
            # failover target can serve the same keys.
            for server in self.replica_sets[shard_id]:
                server.store.put(key, value)
            count += 1
        return count

    def total_records(self) -> int:
        return sum(len(shard.store) for shard in self.shards)
