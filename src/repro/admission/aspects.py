"""The method-level result-cache tier (woven, beneath whole pages).

Meloca & Nunes's method-level caching-recommendation study (PAPERS.md)
locates the sweet spot of application caching at the *method* boundary:
a helper that turns arguments into data, called from many pages.  This
aspect weaves the shared miss protocol (:mod:`repro.cache.computation`)
around designated helper methods:

- entries are keyed ``method://Class.method?arg0=..&..`` (the
  ``method://`` scheme keeps them disjoint from page URIs and
  ``frag://`` keys) and carry their *own* SQL dependencies, collected
  through a nested consistency context exactly as fragment renders are;
- invalidation flows through the same indexed dependency engine -- a
  write dooming the method's reads dooms the ``method://`` entry, and
  containment edges climb to any page entry built from a cached result;
- admission applies per method signature: the entry's statistics bucket
  (and therefore its :mod:`repro.admission.model` class) is
  ``method://Class.method``, so a churn-heavy method demotes
  independently of the pages calling it.

The cached value is the method's *return value*, JSON-serialised into
the entry body (the designated helpers return plain data -- lists of
row dicts); a value JSON cannot round-trip is treated as uncacheable
and simply recomputed.  Methods must be safe to key on arguments alone
-- no request/session state, no entropy; staticcheck rule RC05 vets
designated candidates statically.

Precedence 25 places the tier after the JDBC collector (20), distinct
from every registered precedence (PC03): page/fragment aspects wrap it,
the SQL collector runs beneath it.
"""

from __future__ import annotations

import json

from repro.aop import around
from repro.aop.joinpoint import JoinPoint
from repro.cache.computation import CachedComputation
from repro.web.http import encode_query_string

#: The repo's designated helper methods: RUBiS's shared category/region
#: catalogue scans (full-table reads shared by several browse pages --
#: pure functions of their SQL, RC05-clean).  Custom deployments weave
#: other methods via :func:`method_cache_aspect_class`.
DEFAULT_METHOD_POINTCUT = (
    "execution(CategoryCatalogue.categories(..))"
    " || execution(CategoryCatalogue.regions(..))"
)


def method_key(
    qualname: str, args: tuple = (), kwargs: dict | None = None
) -> str:
    """Canonical cache key for one invocation of a designated method.

    Arguments are rendered with ``repr`` (the designated helpers take
    scalar arguments) and encoded like a query string, mirroring
    ``HttpRequest.cache_key`` / :func:`~repro.cache.fragments.
    fragment_key`.
    """
    params = {f"arg{i}": repr(value) for i, value in enumerate(args)}
    if kwargs:
        params.update({name: repr(value) for name, value in kwargs.items()})
    query = encode_query_string(params)
    return f"method://{qualname}?{query}" if query else f"method://{qualname}"


def method_stat_uri(qualname: str) -> str:
    """Statistics bucket (and admission class) for a designated method."""
    return f"method://{qualname}"


class MethodCacheAspect(CachedComputation):
    """Result caching around designated app helper methods.

    The protocol is the shared nested one (:meth:`CachedComputation.
    cached_nested`); method-specific is only the body encoding -- the
    return value as JSON.
    """

    precedence = 25

    @around(DEFAULT_METHOD_POINTCUT)
    def cache_method(self, joinpoint: JoinPoint):
        return self._cache_method(joinpoint)

    def _cache_method(self, joinpoint: JoinPoint):
        qualname = str(joinpoint.signature)
        return self.cached_nested(
            method_key(qualname, joinpoint.args, joinpoint.kwargs),
            method_stat_uri(qualname),
            joinpoint.proceed,
            encode=_encode,
            decode=json.loads,
        )


def _encode(value) -> str | None:
    """JSON body for ``value``, or None when it cannot round-trip (the
    method result is then simply not cached)."""
    try:
        return json.dumps(value, sort_keys=True)
    except (TypeError, ValueError):
        return None


def method_cache_aspect_class(pointcut: str) -> type[MethodCacheAspect]:
    """The :class:`MethodCacheAspect` (sub)class advising ``pointcut``.

    The advice must be a *fresh* function: re-decorating the base
    class's method would append a second spec to the shared function
    object, weaving the default pointcut alongside the custom one.
    """
    if pointcut == DEFAULT_METHOD_POINTCUT:
        return MethodCacheAspect

    @around(pointcut)
    def cache_method(self, joinpoint: JoinPoint):
        return self._cache_method(joinpoint)

    return type(
        "CustomMethodCacheAspect",
        (MethodCacheAspect,),
        {"cache_method": cache_method},
    )
