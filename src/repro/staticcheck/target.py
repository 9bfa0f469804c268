"""What the checker runs against.

A :class:`CheckTarget` bundles the applications (servlet classes and
their cacheability routing), the aspect classes whose pointcuts are
verified and the join-point surface they are evaluated over.  The real
repo's target comes from :func:`default_target`; the seeded-violation
fixture under ``tests/fixtures/badapp`` builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.staticcheck.source import TypeRegistry


@dataclass(frozen=True)
class AppSpec:
    """One servlet application: URI routing plus cacheability marks."""

    name: str
    #: (uri, servlet class, is_write) triples.
    interactions: tuple[tuple[str, type, bool], ...]
    #: URIs marked uncacheable (hidden state): never cached, so the
    #: cacheability rules RC01/RC02/RC04 do not apply to them.
    uncacheable_uris: frozenset[str] = frozenset()
    #: URIs whose servlets declare fragment/hole boundaries.  The page
    #: stays uncacheable whole, but its fragments are cached, so the
    #: read rules run again -- with the hole exemption: sites confined
    #: to ``hole(...)`` render thunks are recomputed per request and
    #: never enter a cached body.
    fragmented_uris: frozenset[str] = frozenset()


@dataclass
class CheckTarget:
    """Everything one ``run_check`` invocation analyses."""

    repo_root: Path
    apps: tuple[AppSpec, ...] = ()
    #: Aspect classes whose pointcuts are checked for liveness (PC01)
    #: and precedence ambiguity (PC03).
    aspect_classes: tuple[type, ...] = ()
    #: The subset whose advice counts as *caching* coverage (PC02).
    caching_aspect_classes: tuple[type, ...] = ()
    #: Classes contributing the join-point surface pointcuts are
    #: evaluated against (servlets are added automatically from apps).
    surface_classes: tuple[type, ...] = ()
    #: Driver-level call sites that must be covered by caching advice.
    required_sql_sites: tuple[tuple[type, str], ...] = ()
    #: Class names whose instances are per-request entropy (RC02), e.g.
    #: the TPC-W ad rotator.
    entropy_classes: frozenset[str] = frozenset()
    #: Receiver type names through which SQL legitimately flows (the
    #: woven driver); anything else executing SQL is RC03.
    woven_sql_types: frozenset[str] = frozenset({"Statement"})
    #: Schema catalog (:class:`repro.sql.lineage.Catalog`) the
    #: cacheability pass uses to compute exact column lineage: the RC04
    #: column-disjointness exemption and the RC06 dead-write pass both
    #: need it; None disables the exemption and weakens RC06 to the
    #: catalog-free (still conservative) read sets.
    catalog: object | None = None
    #: Extra classes the type-inference registry should know about.
    helper_classes: tuple[type, ...] = ()
    baseline_path: Path | None = None

    _registry: TypeRegistry | None = field(default=None, repr=False)

    @property
    def registry(self) -> TypeRegistry:
        if self._registry is None:
            classes: list[type] = list(self.helper_classes)
            classes.extend(self.surface_classes)
            for app in self.apps:
                for _uri, servlet_cls, _w in app.interactions:
                    classes.append(servlet_cls)
                    classes.extend(
                        base
                        for base in servlet_cls.__mro__[1:]
                        if base is not object
                    )
            self._registry = TypeRegistry(tuple(classes))
        return self._registry

    def servlet_classes(self) -> list[type]:
        seen: set[type] = set()
        ordered: list[type] = []
        for app in self.apps:
            for _uri, servlet_cls, _w in app.interactions:
                if servlet_cls not in seen:
                    seen.add(servlet_cls)
                    ordered.append(servlet_cls)
        return ordered


def repo_root() -> Path:
    """The checkout root, derived from the installed package location."""
    import repro

    return Path(repro.__file__).resolve().parents[2]


def default_target() -> CheckTarget:
    """The real repository: both benchmark apps, all woven aspects, the
    caching/cluster join-point surface."""
    from repro.apps.html import PageComposer
    from repro.apps.rubis import app as rubis_app
    from repro.apps.rubis.base import CategoryCatalogue, RubisServlet
    from repro.apps.tpcw import app as tpcw_app
    from repro.apps.tpcw.base import AdRotator, TpcwServlet
    from repro.cache.api import Cache
    from repro.cache.aspects import (
        JdbcConsistencyAspect,
        ReadServletAspect,
        WriteServletAspect,
    )
    from repro.cache.aspects_fragment import FragmentCacheAspect
    from repro.cluster.bus import InvalidationBus
    from repro.cluster.node import CacheNode
    from repro.cluster.router import ClusterRouter
    from repro.db.dbapi import Connection, ResultSet, Statement
    from repro.db.engine import Database
    from repro.apps.rubis.schema import create_rubis_schema
    from repro.apps.tpcw.schema import create_tpcw_schema
    from repro.obs.aspects import MetricsAspect, TracingAspect
    from repro.obs.servlets import MetricsServlet, TracesServlet
    from repro.sql.lineage import Catalog
    from repro.web.servlet import HttpServlet

    root = repo_root()
    # Throwaway databases exist only to read the declared schemas back
    # out as a lineage catalog (both apps' tables are disjointly named).
    rubis_db = Database("catalog-rubis")
    create_rubis_schema(rubis_db)
    tpcw_db = Database("catalog-tpcw")
    create_tpcw_schema(tpcw_db)
    catalog = Catalog.from_database(rubis_db).merge(
        Catalog.from_database(tpcw_db)
    )
    rubis = AppSpec(
        name="rubis",
        interactions=tuple(
            (uri, cls, write)
            for uri, (cls, write) in rubis_app.INTERACTIONS.items()
        ),
    )
    tpcw = AppSpec(
        name="tpcw",
        interactions=tuple(
            (uri, cls, write)
            for uri, (cls, write) in tpcw_app.INTERACTIONS.items()
        ),
        uncacheable_uris=frozenset(tpcw_app.HIDDEN_STATE_URIS),
        fragmented_uris=frozenset(tpcw_app.HIDDEN_STATE_URIS),
    )
    baseline = root / "staticcheck-baseline.json"
    return CheckTarget(
        repo_root=root,
        apps=(rubis, tpcw),
        aspect_classes=(
            ReadServletAspect,
            WriteServletAspect,
            JdbcConsistencyAspect,
            FragmentCacheAspect,
            TracingAspect,
            MetricsAspect,
        ),
        caching_aspect_classes=(
            ReadServletAspect,
            WriteServletAspect,
            JdbcConsistencyAspect,
            FragmentCacheAspect,
        ),
        surface_classes=(
            PageComposer,
            Statement,
            Connection,
            Cache,
            ClusterRouter,
            InvalidationBus,
            CacheNode,
            MetricsServlet,
            TracesServlet,
        ),
        required_sql_sites=(
            (Statement, "execute_query"),
            (Statement, "execute_update"),
            (Connection, "commit"),
            (Connection, "rollback"),
        ),
        entropy_classes=frozenset({"AdRotator"}),
        catalog=catalog,
        helper_classes=(
            Statement,
            Connection,
            ResultSet,
            Database,
            RubisServlet,
            CategoryCatalogue,
            TpcwServlet,
            AdRotator,
            HttpServlet,
            PageComposer,
        ),
        baseline_path=baseline if baseline.exists() else None,
    )
