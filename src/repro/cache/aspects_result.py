"""Weaving rules for the back-end result-set cache.

A single aspect suffices because result sets flow through one
homogeneous interface (``Statement.execute_query``) -- the property the
paper highlights when contrasting page caching with SQL-result caching
[8]: "caching data such as JDBC SQL results at a single well-specified
interface".

The aspect can be woven alone (result caching only) or together with
the page-cache aspects.  When both are active the page cache's aspects
carry higher precedence, so a page hit bypasses the driver entirely and
the result cache only sees queries for page *misses* and uncacheable
pages -- exactly the complementary arrangement Section 9 sketches.
"""

from __future__ import annotations

from repro.aop import Aspect, Weaver, around
from repro.aop.joinpoint import JoinPoint
from repro.cache.analysis import InvalidationPolicy
from repro.cache.aspects import QUERY_POINTCUT, UPDATE_POINTCUT, _sql_and_params
from repro.cache.entry import QueryInstance
from repro.cache.result_cache import ResultCache
from repro.db.dbapi import ResultSet, Statement
from repro.errors import CacheError
from repro.sql.template import QueryTemplate, templateize


class ResultCacheAspect(Aspect):
    """Caches SELECT result sets and invalidates them on writes."""

    precedence = 30  # inside the page-cache aspects when both are woven

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache

    @around(QUERY_POINTCUT)
    def check_result_cache(self, joinpoint: JoinPoint) -> object:
        sql, params = _sql_and_params(joinpoint)
        template, values = templateize(sql, params)
        cached = self.cache.lookup(template, values)
        if cached is not None:
            return ResultSet(cached)
        result_set = joinpoint.proceed()
        # Store the underlying QueryResult; a fresh forward-only
        # ResultSet is minted per hit so cursor state never leaks.
        self.cache.insert(template, values, result_set.query_result)
        return ResultSet(result_set.query_result)

    @around(UPDATE_POINTCUT)
    def invalidate_results(self, joinpoint: JoinPoint) -> object:
        sql, params = _sql_and_params(joinpoint)
        template, values = templateize(sql, params)
        pre_image = None
        if self.cache.policy is InvalidationPolicy.EXTRA_QUERY:
            pre_image = _capture_pre_image(joinpoint, template, values)
        result = joinpoint.proceed()
        self.cache.process_write(QueryInstance(template, values, pre_image))
        return result


def _capture_pre_image(
    joinpoint: JoinPoint, template: QueryTemplate, values: tuple[object, ...]
) -> tuple[dict[str, object], ...] | None:
    """Pre-image capture, as in the page cache's JDBC aspect."""
    select = template.pre_image_select
    if select is None:
        return None
    target = joinpoint.target
    try:
        database = target.connection.database
        result = database.execute_statement(select, values)
    except Exception:
        return None
    return tuple(result.dicts())  # type: ignore[union-attr]


class ResultCacheInstaller:
    """Convenience installer mirroring :class:`AutoWebCache`'s shape."""

    def __init__(
        self, policy: InvalidationPolicy = InvalidationPolicy.EXTRA_QUERY
    ) -> None:
        self.cache = ResultCache(policy=policy)
        self.aspect = ResultCacheAspect(self.cache)
        self._weaver: Weaver | None = None

    @property
    def stats(self):
        return self.cache.stats

    def install(self, driver_classes=(Statement,)) -> None:
        if self._weaver is not None:
            raise CacheError("result cache is already installed")
        weaver = Weaver().add_aspect(self.aspect)
        weaver.weave(list(driver_classes))
        self._weaver = weaver

    def uninstall(self) -> None:
        if self._weaver is None:
            return
        self._weaver.unweave()
        self._weaver = None

    def __enter__(self) -> "ResultCacheInstaller":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
