"""Fragment-granular caching woven at the template layer.

Whole-page caching loses on pages with hidden per-request state: the
paper marks TPC-W's Home and SearchRequest uncacheable outright because
their ad banners change per request (Section 4.3, Figure 17).  Fragment
caching -- the successor the Mertz & Nunes survey identifies -- splits
such pages into cacheable *fragments* and uncacheable *holes*:

- servlets declare the structure through
  :class:`repro.apps.html.PageComposer` (pure pass-through unwoven);
- :class:`FragmentCacheAspect` advises ``PageComposer.fragment`` with
  the shared miss protocol of :mod:`repro.cache.computation` (the one
  :class:`~repro.cache.aspects.ReadServletAspect` applies to pages),
  keyed by ``frag://name?params``, and advises ``PageComposer.hole`` to
  mark every enclosing context as hole-bearing (so nothing containing a
  hole is ever cached whole);
- assembly is simply the page render: cached fragment text is written
  into the response at its natural position, holes recompute, and the
  page body (and its eventual ``Content-Length``, which the WSGI
  adapter derives from the final body) reflects the substitution.

Dependency granularity: a fragment entry's dependencies are its own
reads *plus* its embedded fragments' dependencies, so serving a
fragment hit hands the enclosing computation complete staleness-guard
information in one lookup.  Page entries stay lean -- their own reads
only -- with containment edges (the router's
:class:`~repro.cache.fragments.FragmentContainment`) closing the gap: a
write dooms fragments, and the containment closure dooms every entry
assembled from a doomed fragment's text.

No pointcut here captures servlet handlers, so precedence only has to
order this aspect among the JDBC/observability layers on the composer
join points; 15 keeps it between the servlet aspects (10) and the JDBC
collector (20), and distinct from every registered precedence (PC03).
"""

from __future__ import annotations

from repro.aop import around
from repro.aop.joinpoint import JoinPoint
from repro.cache.computation import CachedComputation
from repro.cache.fragments import fragment_key, fragment_stat_uri
from repro.web.http import HttpResponse

#: Every fragment render, nested ones included (no ``cflowbelow``
#: guard: each nesting level is its own cache entry).
FRAGMENT_POINTCUT = "execution(PageComposer.fragment(..))"
#: Every hole render.
HOLE_POINTCUT = "execution(PageComposer.hole(..))"


class FragmentCacheAspect(CachedComputation):
    """Cache checks and inserts around declared page fragments.

    The protocol is the shared nested one (:meth:`CachedComputation.
    cached_nested`); fragment-specific is only the body encoding -- the
    text the render wrote into the response since ``mark``.  A hit
    writes body text only: a cached fragment must never replay response
    headers or cookies into the assembling response (the PR-1 header
    rule, re-applied at fragment granularity: Set-Cookie or trace
    headers captured at fill time are per-request state).
    """

    precedence = 15

    @around(FRAGMENT_POINTCUT)
    def cache_fragment(self, joinpoint: JoinPoint) -> None:
        response, name, params = _fragment_args(joinpoint)
        mark = response.mark()
        self.cached_nested(
            fragment_key(name, params),
            fragment_stat_uri(name),
            joinpoint.proceed,
            encode=lambda _rendered: response.body_since(mark),
            decode=response.write,
        )

    @around(HOLE_POINTCUT)
    def mark_hole(self, joinpoint: JoinPoint) -> None:
        """A hole renders per-request state: poison every enclosing
        context against whole-body caching, then render normally."""
        self.collector.mark_hole()
        joinpoint.proceed()


def _fragment_args(joinpoint: JoinPoint) -> tuple[HttpResponse, str, dict]:
    """Extract (response, name, params) from a fragment() call."""
    args = joinpoint.args
    if len(args) < 3:  # pragma: no cover - defensive
        raise TypeError(
            f"{joinpoint.signature} does not look like a fragment render"
        )
    return args[0], args[1], args[2]
