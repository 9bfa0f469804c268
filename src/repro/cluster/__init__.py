"""``repro.cluster``: the sharded multi-node cache tier.

AutoWebCache (the paper) proves page/database consistency on a single
woven server.  This package scales that guarantee to N nodes, one copy
of each page, strongly consistent:

- :mod:`repro.cluster.ring` -- consistent-hash placement of page keys
  onto nodes (virtual nodes, minimal remapping on join/leave) and the
  clockwise successor walk failover follows (``nodes_for``);
- :mod:`repro.cluster.bus` -- sequence-numbered invalidation broadcast,
  delivered to every node before the write request completes;
- :mod:`repro.cluster.membership` -- gossip heartbeats with suspicion
  timeouts, so crash detection needs no bus quiescence;
- :mod:`repro.cluster.node` -- per-node cache shard with ordered replay
  and the join/drain/leave lifecycle;
- :mod:`repro.cluster.router` -- the Cache-shaped front-end the caching
  aspects are woven against (placement, failover, crash eviction);
- :mod:`repro.cluster.awc` -- the ``ClusterAutoWebCache`` facade.

See ``docs/cluster.md`` for the consistency argument (how PR-1's
write-sequence staleness window extends across nodes) and for
membership and failover.
"""

from repro.cluster.awc import ClusterAutoWebCache, default_node_names
from repro.cluster.bus import BusMessage, BusStats, InvalidationBus
from repro.cluster.membership import (
    ALIVE,
    DEAD,
    SUSPECT,
    GossipMembership,
    Transition,
)
from repro.cluster.node import CacheNode
from repro.cluster.ring import DEFAULT_VNODES, HashRing, stable_hash
from repro.cluster.router import ClusterRouter, ClusterStats, make_cache_factory

__all__ = [
    "ALIVE",
    "BusMessage",
    "BusStats",
    "CacheNode",
    "ClusterAutoWebCache",
    "ClusterRouter",
    "ClusterStats",
    "DEAD",
    "DEFAULT_VNODES",
    "GossipMembership",
    "HashRing",
    "InvalidationBus",
    "SUSPECT",
    "Transition",
    "default_node_names",
    "make_cache_factory",
    "stable_hash",
]
