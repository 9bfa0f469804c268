"""The AutoWebCache facade: one object that installs the whole system.

Typical use::

    awc = AutoWebCache(policy=InvalidationPolicy.ROW_WITNESS)
    awc.semantics.set_ttl_window("/tpcw/best_sellers", 30.0)
    report = awc.install(container.servlet_classes)
    ...  # serve traffic; awc.cache.stats accumulates
    awc.uninstall()

``install`` weaves the three caching aspects over the given servlet
classes and the database driver's ``Statement`` class -- the aspect
weaving step of Figure 2.  ``uninstall`` restores the original,
cache-free application.
"""

from __future__ import annotations

from typing import Callable, Iterable

import time

from repro.aop.weaver import WeaveReport, Weaver
from repro.cache.analysis import InvalidationPolicy
from repro.cache.api import Cache
from repro.cache.aspects import (
    JdbcConsistencyAspect,
    ReadServletAspect,
    WriteServletAspect,
)
from repro.cache.aspects_fragment import FragmentCacheAspect
from repro.cache.consistency import ConsistencyCollector
from repro.cache.semantics import SemanticsRegistry
from repro.db.dbapi import Connection, Statement
from repro.errors import CacheError


class AutoWebCache:
    """Bundles cache, collector, aspects and weaver.

    The one installer: :class:`~repro.cluster.awc.ClusterAutoWebCache`
    subclasses it and overrides only :meth:`_build_cache` (a router in
    place of a :class:`Cache`), so every shared option below, the
    aspect construction and the weaving lifecycle exist once.
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
    ) -> None:
        #: The facade object the aspects (and work meters) talk to.
        self.cache = self._build_cache(
            invalidation_policy=policy,
            replacement=replacement,
            capacity=capacity,
            max_bytes=max_bytes,
            semantics=semantics,
            clock=clock,
            forced_miss=forced_miss,
            coalesce=coalesce,
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

    def _build_cache(self, **cache_kwargs):
        """The facade object for ``cache_kwargs`` (:class:`Cache`'s)."""
        return Cache(**cache_kwargs)

    @property
    def semantics(self) -> SemanticsRegistry:
        return self.cache.semantics

    @property
    def stats(self):
        return self.cache.stats

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
