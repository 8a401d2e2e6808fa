"""Fault-isolated sharding for the synthesis daemon.

A sharded deployment is N complete daemons (shards) behind one
consistent-hash router:

* :mod:`repro.service.sharding.ring` -- rendezvous hashing over the
  canonical-representative keyspace, with a routing epoch.
* :mod:`repro.service.sharding.shard` -- shard backends (subprocess or
  in-process) and the shard lifecycle states.
* :mod:`repro.service.sharding.supervisor` -- health probes, suspect /
  dead eviction, bounded restarts, live drain/leave.
* :mod:`repro.service.sharding.router` -- the router on the daemon's
  request front (:mod:`repro.service.front`): single-owner routing
  with preference-list failover, batch scatter/gather that tolerates
  partial failure, and cluster-wide ``health``/``stats``/``shards``
  rollups.
* :mod:`repro.service.sharding.cluster` -- launching N local
  ``repro serve`` processes over one shared ``.rdb`` store (what
  ``repro serve --shards N`` runs).

This package is its own architecture layer (``sharding``), *above*
``service``: the service never imports it, the CLI and benchmarks
reach it lazily.
"""

from repro.service.sharding.cluster import (
    ShardCluster,
    shard_command,
    shard_environment,
)
from repro.service.sharding.config import ShardingConfig
from repro.service.sharding.ring import HashRing, member_seed, rendezvous_score
from repro.service.sharding.router import ShardRouter
from repro.service.sharding.shard import (
    DEAD,
    DRAINING,
    JOINING,
    LEFT,
    ROUTABLE_STATES,
    SHARD_STATES,
    SUSPECT,
    UP,
    InProcessShard,
    ProcessShard,
)
from repro.service.sharding.supervisor import ManagedShard, ShardSupervisor

__all__ = [
    "DEAD",
    "DRAINING",
    "JOINING",
    "LEFT",
    "ROUTABLE_STATES",
    "SHARD_STATES",
    "SUSPECT",
    "UP",
    "HashRing",
    "InProcessShard",
    "ManagedShard",
    "ProcessShard",
    "ShardCluster",
    "ShardRouter",
    "ShardingConfig",
    "ShardSupervisor",
    "member_seed",
    "rendezvous_score",
    "shard_command",
    "shard_environment",
]
