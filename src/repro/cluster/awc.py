"""The cluster facade: AutoWebCache over N sharded nodes.

*Is* an :class:`~repro.cache.autowebcache.AutoWebCache` -- its
constructor options, aspect set and ``install``/``uninstall`` weaving
lifecycle are inherited, not mirrored -- except that the aspects are
bound to a :class:`~repro.cluster.router.ClusterRouter` instead of a
single :class:`~repro.cache.api.Cache`.  The woven application is
unchanged either way: sharding, like caching itself, stays a
crosscutting concern.

Typical use::

    awc = ClusterAutoWebCache(n_nodes=4)
    awc.install(container.servlet_classes)
    ...  # serve traffic; awc.stats aggregates across nodes
    print(awc.cluster_snapshot())
    awc.uninstall()
"""

from __future__ import annotations

from repro.cache.autowebcache import AutoWebCache
from repro.cache.semantics import SemanticsRegistry
from repro.cluster.ring import DEFAULT_VNODES
from repro.cluster.router import ClusterRouter, make_cache_factory


def default_node_names(n_nodes: int) -> list[str]:
    return [f"node-{i}" for i in range(n_nodes)]


class ClusterAutoWebCache(AutoWebCache):
    """AutoWebCache whose facade object is a cluster router.

    Declares only the cluster's own options; every other keyword is
    :class:`AutoWebCache`'s and configures each node's cache.
    """

    def __init__(
        self,
        n_nodes: int = 4,
        node_names: list[str] | None = None,
        vnodes: int = DEFAULT_VNODES,
        **shared,
    ) -> None:
        self._router_kwargs = dict(
            node_names=(
                node_names
                if node_names is not None
                else default_node_names(n_nodes)
            ),
            vnodes=vnodes,
        )
        super().__init__(**shared)

    def _build_cache(self, **cache_kwargs) -> ClusterRouter:
        # One shared registry (by reference, through the factory):
        # cacheability and TTL windows are cluster-wide policy,
        # identical on every shard.
        if cache_kwargs["semantics"] is None:
            cache_kwargs["semantics"] = SemanticsRegistry()
        return ClusterRouter(
            cache_factory=make_cache_factory(**cache_kwargs),
            **self._router_kwargs,
        )

    @property
    def router(self) -> ClusterRouter:
        return self.cache

    @property
    def bus(self):
        return self.router.bus

    def cluster_snapshot(self) -> dict:
        """Aggregate + per-node + bus accounting, one consistent read
        per node (see :meth:`repro.cache.stats.CacheStats.snapshot`)."""
        return self.router.snapshot()
