"""The AutoWebCache installer: one object that installs the whole system.

Typical use::

    awc = AutoWebCache(policy=InvalidationPolicy.ROW_WITNESS)
    awc.semantics.set_ttl_window("/tpcw/best_sellers", 30.0)
    report = awc.install(container.servlet_classes)
    ...  # serve traffic; awc.stats accumulates
    print(awc.cluster_snapshot())
    awc.uninstall()

``install`` weaves the caching aspects over the given servlet classes
and the database driver's ``Statement`` and ``Connection`` classes --
the aspect weaving step of Figure 2.  ``uninstall`` restores the
original, cache-free application.

The aspects talk to one cache object, a
:class:`~repro.cluster.router.ClusterRouter`: a single server is the
one-node ring (``n_nodes=1``, the default), and ``n_nodes=4`` shards
the same cache over four nodes without touching the application --
sharding, like caching itself, stays a crosscutting concern.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import time

from repro.aop.weaver import WeaveReport, Weaver
from repro.cache.analysis import InvalidationPolicy
from repro.cache.aspects import (
    JdbcConsistencyAspect,
    ReadServletAspect,
    WriteServletAspect,
)
from repro.cache.aspects_fragment import FragmentCacheAspect
from repro.cache.consistency import ConsistencyCollector
from repro.cache.semantics import SemanticsRegistry
from repro.cluster.ring import DEFAULT_VNODES
from repro.db.dbapi import Connection, Statement
from repro.errors import CacheError

if TYPE_CHECKING:
    from repro.cluster.router import ClusterRouter


class AutoWebCache:
    """Bundles the cache facade, collector, aspects and weaver.

    The first nine options configure every node's cache; ``n_nodes`` /
    ``node_names`` / ``vnodes`` shape the ring.
    """

    def __init__(
        self,
        policy: InvalidationPolicy = InvalidationPolicy.ROW_WITNESS,
        replacement: str = "unbounded",
        capacity: int | None = None,
        max_bytes: int | None = None,
        semantics: SemanticsRegistry | None = None,
        clock: Callable[[], float] = time.time,
        forced_miss: bool = False,
        coalesce: bool = True,
        fragments: bool = True,
        n_nodes: int = 1,
        node_names: list[str] | None = None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        # Imported here: ``repro.cluster`` imports this package.
        from repro.cluster.router import ClusterRouter, make_cache_factory

        #: The facade object the aspects (and work meters) talk to.
        self.cache = ClusterRouter(
            node_names=(
                node_names
                if node_names is not None
                else [f"node-{i}" for i in range(n_nodes)]
            ),
            cache_factory=make_cache_factory(
                invalidation_policy=policy,
                replacement=replacement,
                capacity=capacity,
                max_bytes=max_bytes,
                # One registry, shared by reference: cacheability and
                # TTL windows are ring-wide policy, the same on every
                # node.
                semantics=semantics or SemanticsRegistry(),
                clock=clock,
                forced_miss=forced_miss,
                coalesce=coalesce,
            ),
            vnodes=vnodes,
        )
        self.collector = ConsistencyCollector()
        self.read_aspect = ReadServletAspect(self.cache, self.collector)
        self.write_aspect = WriteServletAspect(self.cache, self.collector)
        self.jdbc_aspect = JdbcConsistencyAspect(self.cache, self.collector)
        #: Fragment-granular caching over declared PageComposer
        #: boundaries; ``fragments=False`` is the whole-page ablation
        #: (declared boundaries render inline, nothing fragment-cached).
        self.fragments_enabled = fragments
        self.fragment_aspect = (
            FragmentCacheAspect(self.cache, self.collector) if fragments else None
        )
        self._weaver: Weaver | None = None
        self.weave_report: WeaveReport | None = None

    @property
    def router(self) -> ClusterRouter:
        return self.cache

    @property
    def bus(self):
        return self.cache.bus

    @property
    def semantics(self) -> SemanticsRegistry:
        return self.cache.semantics

    @property
    def stats(self):
        return self.cache.stats

    def cluster_snapshot(self) -> dict:
        """Aggregate + per-node + bus + membership accounting, one
        consistent read per node (:meth:`ClusterStats.snapshot`)."""
        return self.cache.snapshot()

    @property
    def installed(self) -> bool:
        return self._weaver is not None

    def install(
        self,
        servlet_classes: Iterable[type],
        driver_classes: Iterable[type] = (Statement, Connection),
        extra_aspects: Iterable[object] = (),
    ) -> WeaveReport:
        """Weave the caching aspects into the application.

        ``servlet_classes`` are the application's servlet classes;
        ``driver_classes`` the database-driver classes carrying
        ``execute_query``/``execute_update`` plus the transaction
        boundary ``commit``/``rollback`` (defaults to the bundled
        DB-API :class:`~repro.db.dbapi.Statement` and
        :class:`~repro.db.dbapi.Connection`).  ``extra_aspects``
        are woven by the same weaver -- e.g. the observability tier's
        tracing and metrics aspects.
        """
        if self._weaver is not None:
            raise CacheError(f"{type(self).__name__} is already installed")
        weaver = Weaver()
        weaver.add_aspect(self.read_aspect)
        weaver.add_aspect(self.write_aspect)
        weaver.add_aspect(self.jdbc_aspect)
        targets = list(servlet_classes) + list(driver_classes)
        if self.fragment_aspect is not None:
            from repro.apps.html import PageComposer

            weaver.add_aspect(self.fragment_aspect)
            if PageComposer not in targets:
                targets.append(PageComposer)
        for aspect in extra_aspects:
            weaver.add_aspect(aspect)
        self.weave_report = weaver.weave(targets)
        self._weaver = weaver
        return self.weave_report

    def uninstall(self) -> None:
        """Unweave, restoring the original application classes."""
        if self._weaver is None:
            return
        self._weaver.unweave()
        self._weaver = None

    def __enter__(self) -> "AutoWebCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
