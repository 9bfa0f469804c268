"""Application-semantics hooks (Section 4.3).

Two concessions to non-orthogonality the paper identifies:

- **Hidden state** -- pages whose content depends on state outside the
  HTTP request (random ad banners, static counters) must be *marked
  uncacheable by the developer*.  TPC-W's SearchRequest and
  HomeInteraction are the paper's examples (Figure 17).
- **Semantic TTL windows** -- when the application tolerates staleness,
  a page may be served for a fixed window regardless of writes.  TPC-W's
  BestSeller 30-second dirty-read allowance (spec clauses 3.1.4.1 and
  6.3.3.1) is the paper's example (Figure 15).

Both are *declarative* configuration on the cache, not edits to servlet
code: the weaving rules stay unchanged, preserving the AOP transparency
argument.
"""

from __future__ import annotations

from typing import Callable

from repro.web.http import HttpRequest


class SemanticsRegistry:
    """Per-URI cacheability rules and TTL windows."""

    def __init__(self) -> None:
        self._uncacheable: set[str] = set()
        self._fragmented: set[str] = set()
        self._predicates: list[Callable[[HttpRequest], bool]] = []
        self._ttl_windows: dict[str, float] = {}
        self._default_ttl: float | None = None

    # -- configuration -----------------------------------------------------------

    def mark_uncacheable(self, uri: str) -> "SemanticsRegistry":
        """Never cache responses for ``uri`` (hidden-state escape hatch)."""
        self._uncacheable.add(uri)
        return self

    def mark_fragmented(self, uri: str) -> "SemanticsRegistry":
        """``uri`` is whole-page uncacheable but declares fragment
        boundaries: the cacheable spans are cached per-fragment, the
        hidden-state spans stay holes.  For the page-level aspects this
        behaves exactly like :meth:`mark_uncacheable`; the annotation
        exists so tooling (staticcheck, reporting) can tell "opted out"
        from "fragmented"."""
        self._uncacheable.add(uri)
        self._fragmented.add(uri)
        return self

    def mark_uncacheable_when(
        self, predicate: Callable[[HttpRequest], bool]
    ) -> "SemanticsRegistry":
        """Never cache requests for which ``predicate`` returns True."""
        self._predicates.append(predicate)
        return self

    def set_ttl_window(self, uri: str, seconds: float) -> "SemanticsRegistry":
        """Serve ``uri`` pages for ``seconds`` regardless of writes.

        TTL pages bypass dependency registration entirely: the
        application has declared the staleness acceptable, so writes
        during the window do not invalidate them.
        """
        if seconds <= 0:
            raise ValueError("TTL window must be positive")
        self._ttl_windows[uri] = float(seconds)
        return self

    def set_default_ttl(self, seconds: float) -> "SemanticsRegistry":
        """Time-lagged *weak* consistency for every page.

        Every cached page simply expires after ``seconds``, and writes
        never invalidate anything -- the CachePortal-style baseline the
        related-work section contrasts with AutoWebCache's strong
        consistency.  Stale responses are possible within the window;
        the weak-consistency ablation quantifies how many.
        """
        if seconds <= 0:
            raise ValueError("TTL must be positive")
        self._default_ttl = float(seconds)
        return self

    # -- queries -------------------------------------------------------------------

    def is_cacheable(self, request: HttpRequest) -> bool:
        if request.uri in self._uncacheable:
            return False
        for predicate in self._predicates:  # a loop: no generator per request
            if predicate(request):
                return False
        return True

    def is_cacheable_uri(self, uri: str) -> bool:
        """The verdict that needs no request object: False for an
        uncacheable ``uri`` and, while any :meth:`mark_uncacheable_when`
        predicate is registered, for every URI -- a predicate can only
        be asked about a whole request."""
        return not self._predicates and uri not in self._uncacheable

    def ttl_for(self, uri: str) -> float | None:
        specific = self._ttl_windows.get(uri)
        if specific is not None:
            return specific
        return self._default_ttl

    @property
    def uncacheable_uris(self) -> frozenset[str]:
        return frozenset(self._uncacheable)

    @property
    def fragmented_uris(self) -> frozenset[str]:
        return frozenset(self._fragmented)
