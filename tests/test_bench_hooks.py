"""Fail fast on a renamed bench hook.

``bench/tracing.py`` patches ``src/repro`` attributes *by name* from
outside the package; a rename used to be noticed only by the traced
round of ``make bench-e2e``.  This tier-1 test (no sockets, nothing is
patched) asserts every name it reaches for still resolves.
"""

from __future__ import annotations

import pytest

import repro.cache.aspects as aspects
import repro.db.engine as engine
import repro.sql.template as template
import repro.web.asyncserver as asyncserver
from bench import tracing
from repro.apps.html import PageComposer
from repro.cache.api import Cache
from repro.cluster.bus import InvalidationBus
from repro.cluster.router import ClusterRouter
from repro.db.dbapi import Statement
from repro.web.servlet import HttpServlet

#: The one facade method the router does not have (bench/tracing.py
#: guards it with ``hasattr``; anything else going missing is a rename).
ROUTER_LACKS = {"apply_writes"}

HOOKS = (
    [(Cache, method) for method in tracing.FACADE_METHODS]
    + [
        (ClusterRouter, method)
        for method in tracing.FACADE_METHODS
        if method not in ROUTER_LACKS
    ]
    + [(HttpServlet, handler) for handler in tracing.HANDLERS]
    + [(Statement, method) for method in tracing.DRIVER_CALLS]
    + [(PageComposer, method) for method in tracing.COMPOSER_CALLS]
    + [
        (InvalidationBus, "publish"),
        (aspects, "templateize"),
        (template, "parse_statement"),
        (engine, "parse_statement"),
        (engine.Database, "execute_statement"),
        (asyncserver, "build_wire"),
        (asyncserver.AsyncCachedServer, "render"),
        (asyncserver._HttpConnection, "data_received"),
    ]
)


@pytest.mark.parametrize(
    "owner, name",
    HOOKS,
    ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in HOOKS],
)
def test_bench_tracing_hook_resolves(owner, name):
    assert callable(getattr(owner, name, None)), (
        f"bench/tracing.py patches {owner.__name__}.{name} by name"
    )


def test_jdbc_advice_calls_the_patched_templateize():
    """``templateize`` must stay the *module attribute* the JDBC advice
    looks up at call time, or the ``sql.templateize`` span goes dark."""
    advice = aspects.JdbcConsistencyAspect.collect_dependency_info
    assert "templateize" in advice.__code__.co_names
