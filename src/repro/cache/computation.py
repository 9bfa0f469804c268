"""The cached-computation driver: the miss protocol, written once.

Both caching tiers -- whole pages (:class:`~repro.cache.aspects.
ReadServletAspect`) and fragments (:class:`~repro.cache.aspects_fragment.
FragmentCacheAspect`) -- answer a request for ``key`` the same way:

1. **lookup**: a hit is served and nothing else happens;
2. **lead or wait**: up to ``max_flight_attempts`` rounds of
   ``join_flight`` -- the leader computes under the token it opened
   (``finish_flight`` on every exit path), waiters ``wait_flight`` and
   serve the leader's entry, recording a coalesced serve; a failed,
   uncacheable or invalidated-in-flight leader sends the waiter round
   again (a new leader may already exist).  With ``cache.coalesce`` off
   the token is private and the caller always leads;
3. **solo**: a waiter out of attempts computes under a private
   ``begin_window``/``end_window`` token, so one crashing leader cannot
   starve the queue.

Every computation passes its own token to its insert, so a write
landing between the computation's database reads and its insert still
discards the insert -- without the token that write is invisible (no
dependency registrations yet) and the stale entry would be served until
the *next* write touching the same data.

:meth:`CachedComputation.cached` is that protocol, parameterised only by
what differs per tier: the key, the statistics bucket, how to look an
entry up, how to ``serve(entry)`` and how to ``compute(window)`` (run
the body and insert, passing the token ``window`` through to the
insert).  The token primitives themselves -- the synchronisation -- live
on the facade (:class:`~repro.cluster.router.ClusterRouter`, which opens
each token on the node :class:`~repro.cache.api.Cache` owning the key);
this module is their only caller.

A fragment is a computation nested inside another one, so
:meth:`CachedComputation.cached_nested` adds what nesting needs: the
nested consistency context, the ``insert_key``, and folding the
finished computation into whatever encloses it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.aop import Aspect

if TYPE_CHECKING:  # hint-only
    from repro.cache.consistency import ConsistencyCollector, RequestContext
    from repro.cache.entry import PageEntry
    from repro.cache.flight import Flight


class CachedComputation(Aspect):
    """Base of the tier aspects: state plus the shared protocol."""

    #: How many failed flights a waiter rides before computing solo.
    max_flight_attempts = 3

    def __init__(self, cache, collector: ConsistencyCollector) -> None:
        self.cache = cache
        self.collector = collector

    def cached(
        self,
        key: str,
        stat_uri: str,
        lookup: Callable[[], PageEntry | None],
        serve: Callable[[PageEntry], object],
        compute: Callable[[Flight], object],
    ):
        """Serve ``key`` from the cache, a concurrent computation of it,
        or ``compute`` -- whichever comes first (module docstring)."""
        cache = self.cache
        entry = lookup()
        if entry is not None:
            return serve(entry)
        for _attempt in range(self.max_flight_attempts):
            flight, is_leader = cache.join_flight(key)
            if is_leader:
                try:
                    return compute(flight)
                finally:
                    cache.finish_flight(flight)
            entry = cache.wait_flight(flight)
            if entry is not None:
                result = serve(entry)
                cache.record_coalesced(stat_uri)
                return result
        window = cache.begin_window(key)
        try:
            return compute(window)
        finally:
            cache.end_window(window)

    def cached_nested(
        self,
        key: str,
        stat_uri: str,
        proceed: Callable[[], object],
        encode: Callable[[object], str],
        decode: Callable[[str], object],
    ):
        """A computation nested inside another one (a fragment).

        ``encode(value)`` turns what ``proceed()`` returned into the
        entry body; ``decode(body)`` is its inverse, applied to hits.
        """

        def serve(entry: PageEntry):
            # The enclosing computation absorbs the entry's dependencies
            # -- complete by construction, nested entries included -- as
            # guard information, plus the containment edge and the
            # entry's expiry.
            parent = self.collector.current()
            if parent is not None and parent.is_read:
                parent.fragment_keys.append(key)
                parent.fragment_reads.extend(entry.dependencies)
                parent.cap_expiry(entry.expires_at)
            return decode(entry.body)

        def compute(window: Flight):
            context = self.collector.begin_fragment(key)
            try:
                value = proceed()
            except BaseException:
                # Nothing is stored, but what the render read and wrote
                # before it raised still reaches the enclosing
                # computation: its writes must invalidate.
                self.collector.end_fragment()
                self._merge(context, key, None)
                raise
            self.collector.end_fragment()
            entry = None
            if context.has_hole:
                # Per-request state inside: never cached whole.
                self.cache.record_hole_skip()
            elif not (context.aborted or context.writes):
                entry, stored = self.cache.insert_key(
                    key,
                    encode(value),
                    context.reads + context.fragment_reads,
                    window=window,
                    ttl_uri=stat_uri,
                    fragments=context.fragment_keys,
                    expires_at=context.expires_at,
                )
                if not stored:
                    entry = None
            self._merge(context, key, entry)
            return value

        return self.cached(
            key,
            stat_uri,
            lambda: self.cache.check_key(key, stat_uri),
            serve,
            compute,
        )

    def _merge(
        self, context: RequestContext, key: str, entry: PageEntry | None
    ) -> None:
        """Fold a finished nested computation into its enclosing one.

        Stored (``entry`` is the stored entry): the parent needs the
        containment edge, the entry's expiry, and the entry's full
        dependency set as guard information (a write landing while the
        parent is still rendering dooms this entry, so the parent's
        insert-time staleness check must see it).

        Not stored (aborted, hole-bearing, wrote, raised, or discarded
        by the staleness check): the result is part of the parent's body
        with no entry of its own backing it, so its reads become the
        parent's *own* dependencies -- and any nested containment edges
        climb to the parent.

        Every woven request handler -- an uncacheable page's included --
        opens a context, so a fragment rendered by one has a parent; one
        rendered outside any woven handler has nothing to fold into.
        """
        parent = context.parent
        if parent is None:
            return
        parent.writes.extend(context.writes)
        if context.extra_queries[0]:
            parent.add_extra_queries(*context.extra_queries)
        if not parent.is_read:
            return  # an uncacheable page keeps only what was written
        if entry is not None:
            parent.fragment_keys.append(key)
            parent.fragment_reads.extend(context.reads)
            parent.cap_expiry(entry.expires_at)
        else:
            parent.reads.extend(context.reads)
            parent.fragment_keys.extend(context.fragment_keys)
        parent.fragment_reads.extend(context.fragment_reads)
        if context.aborted:
            parent.aborted = True
