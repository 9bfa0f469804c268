"""``repro.cluster``: the cache facade and its ring of node stores.

AutoWebCache (the paper) proves page/database consistency on a single
woven server.  This package is the facade the aspects talk to, over
N >= 1 nodes -- a single server is the one-node ring -- one copy of
each page, strongly consistent:

- :mod:`repro.cluster.ring` -- consistent-hash placement of page keys
  onto nodes (virtual nodes, minimal remapping on join/leave) and the
  clockwise successor walk failover follows (``nodes_for``);
- :mod:`repro.cluster.bus` -- sequence-numbered invalidation broadcast,
  delivered to every node before the write request completes;
- :mod:`repro.cluster.membership` -- gossip heartbeats with suspicion
  timeouts, so crash detection needs no bus quiescence;
- :mod:`repro.cluster.node` -- per-node cache shard with ordered replay
  and the join/drain/leave lifecycle;
- :mod:`repro.cluster.router` -- the facade the caching aspects are
  woven against (placement, failover, crash eviction, fragment
  containment, the front-end counters).

The installer is :class:`repro.cache.autowebcache.AutoWebCache`
(``n_nodes=``); ``ClusterAutoWebCache`` is another name for it, kept
for callers written when the ring had its own installer.

See ``docs/cluster.md`` for the consistency argument (how PR-1's
write-sequence staleness window extends across nodes) and for
membership and failover.
"""

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
    "make_cache_factory",
    "stable_hash",
]


def __getattr__(name: str):
    # Resolved lazily: the installer imports this package's router.
    if name == "ClusterAutoWebCache":
        from repro.cache.autowebcache import AutoWebCache

        return AutoWebCache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
