"""Fragment identity and fragment->page containment tracking.

ESI-style fragment caching (Mertz & Nunes' successor to whole-page
caching; ROADMAP "fragments" item) stores page *parts* as first-class
cache entries.  Two pieces of shared vocabulary live here:

* :func:`fragment_key` -- the canonical cache key for a fragment, in a
  ``frag://`` scheme so fragment keys can never collide with page keys
  (which are URIs).
* :class:`FragmentContainment` -- which cached pages embed which cached
  fragments.  When invalidation dooms a fragment, every page whose
  cached body *contains a copy of that fragment's text* is stale too
  and must be doomed with it; the table answers that closure.

The containment table is a plain structure: it takes no lock.  Its
one owner, the cluster router (a page and its fragments usually live
on different nodes), calls it only under the router lock.
"""

from __future__ import annotations

from repro.web.http import encode_query_string


def fragment_key(name: str, params: dict[str, str]) -> str:
    """Canonical cache key for fragment ``name`` with ``params``.

    Mirrors ``HttpRequest.cache_key`` (name + sorted parameters) in a
    dedicated ``frag://`` scheme.
    """
    query = encode_query_string(params)
    return f"frag://{name}?{query}" if query else f"frag://{name}"


def fragment_stat_uri(name: str) -> str:
    """The per-"URI" statistics bucket for a fragment (parameters
    aggregate, exactly as page statistics aggregate per URI)."""
    return f"frag://{name}"


class FragmentContainment:
    """Bidirectional fragment<->page containment edges.

    ``add`` is called at insert time with the fragments whose cached
    text the body embeds; ``containing`` computes the
    transitive closure of entries doomed by a set of doomed keys
    (fragments may nest, so a doomed leaf fragment can doom an outer
    fragment which dooms a page).
    """

    def __init__(self) -> None:
        self._pages_of: dict[str, set[str]] = {}  # fragment -> containers
        self._fragments_of: dict[str, set[str]] = {}  # container -> fragments

    def add(self, page_key: str, fragment_keys: list[str] | tuple[str, ...]) -> None:
        """Record that ``page_key``'s cached body embeds ``fragment_keys``,
        keeping any edges it already has.

        The router's store insert is not atomic with the edge update:
        two computations of one key may register in either order, and a
        spare edge costs at most an extra miss where a lost one serves a
        stale page.  The key's next doom or eviction drops them all.
        """
        if not fragment_keys:
            return  # no edges (most entries, every insert)
        self._fragments_of.setdefault(page_key, set()).update(fragment_keys)
        for fragment in fragment_keys:
            self._pages_of.setdefault(fragment, set()).add(page_key)

    def forget(self, page_key: str) -> None:
        """Drop ``page_key``'s containment edges (entry gone)."""
        for old in self._fragments_of.pop(page_key, ()):
            pages = self._pages_of.get(old)
            if pages is not None:
                pages.discard(page_key)
                if not pages:
                    del self._pages_of[old]

    def __len__(self) -> int:
        """How many entries embed a fragment; 0 means no edge at all."""
        return len(self._fragments_of)

    def touches(self, keys: set[str]) -> bool:
        """Has any of ``keys`` a containment edge, as a fragment or as a
        container?  A key without one leaves nothing to close or forget."""
        return bool(self._fragments_of) and not (
            self._pages_of.keys().isdisjoint(keys)
            and self._fragments_of.keys().isdisjoint(keys)
        )

    def containing(self, keys: set[str]) -> set[str]:
        """Every container transitively embedding any of ``keys``.

        Returns only the *additional* doomed keys (the input set is
        excluded).
        """
        doomed: set[str] = set()
        frontier = list(keys)
        while frontier:
            key = frontier.pop()
            for container in self._pages_of.get(key, ()):
                if container not in doomed and container not in keys:
                    doomed.add(container)
                    frontier.append(container)
        return doomed
