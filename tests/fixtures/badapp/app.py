"""The badapp :class:`CheckTarget`: what the golden test runs the
checker against.  Mirrors :func:`repro.staticcheck.target.default_target`
in miniature, with no baseline (every finding stays active)."""

from __future__ import annotations

from repro.db.dbapi import Connection, ResultSet, Statement
from repro.db.engine import Database
from repro.sql.lineage import Catalog
from repro.staticcheck.target import AppSpec, CheckTarget, repo_root
from repro.web.servlet import HttpServlet
from tests.fixtures.badapp.aspects import (
    BadCachingAspect,
    GhostAspect,
    RivalAspect,
)
from tests.fixtures.badapp.servlets import (
    AuditedCounter,
    BackdoorReader,
    GoodServlet,
    LuckyNumber,
    OrphanServlet,
    ScanHeavy,
    StampingWriter,
)

#: badapp's schema as the lineage catalog.  ``categories`` is declared
#: at exactly the width ScanHeavy reads, so its full-width scan earns
#: no column-disjointness plan and RC04 still fires; ``items`` carries
#: the never-read ``audit_stamp`` column StampingWriter updates (RC06).
BADAPP_CATALOG = Catalog(
    {
        "categories": ("id", "name"),
        "regions": ("id", "name"),
        "items": ("id", "name", "seller", "audit_stamp"),
        "page_hits": ("page", "hits"),
    }
)


def badapp_target() -> CheckTarget:
    interactions = (
        ("/bad/counter", AuditedCounter, False),
        ("/bad/lucky", LuckyNumber, False),
        ("/bad/backdoor", BackdoorReader, False),
        ("/bad/scan", ScanHeavy, False),
        ("/bad/good", GoodServlet, False),
        ("/bad/orphan", OrphanServlet, False),
        ("/bad/stamp", StampingWriter, True),
    )
    return CheckTarget(
        repo_root=repo_root(),
        apps=(AppSpec(name="badapp", interactions=interactions),),
        aspect_classes=(BadCachingAspect, GhostAspect, RivalAspect),
        caching_aspect_classes=(BadCachingAspect,),
        surface_classes=(Statement, Connection),
        required_sql_sites=(
            (Statement, "execute_query"),
            (Statement, "execute_update"),
            (Connection, "commit"),
            (Connection, "rollback"),
        ),
        catalog=BADAPP_CATALOG,
        helper_classes=(
            Statement,
            Connection,
            ResultSet,
            Database,
            HttpServlet,
        ),
        baseline_path=None,
    )
