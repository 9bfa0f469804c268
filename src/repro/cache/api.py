"""The per-node cache store (Figure 7's jwebcaching.cache.Cache analogue).

Bundles the page store, dependency table, invalidator, semantics
registry and statistics behind the operations the cluster router routes
to a node: ``check`` / ``insert`` / the computation tokens /
``apply_writes``.  The aspects never see a ``Cache``: they talk to the
:class:`~repro.cluster.router.ClusterRouter` (a single node is the
one-node ring), which also owns what spans entries -- fragment
containment and the front-end counters -- and the SQL analysis: the
one engine and analysis cache every node's invalidator analyses
through, the schema catalog, the row witness and the partner-probe
plan.  A node holds pages.

The cache takes a ``clock`` callable so the discrete-event simulator can
drive TTL windows in virtual time; real deployments use ``time.time``.

Thread model: one lock per node store.  The page store, the dependency
table inside it and the statistics are plain structures this store
owns; it takes its ``lock`` once per operation -- a lookup, an insert,
each flight or window primitive, a write's whole doom pass, an external
invalidation -- and touches them only under it.  The shared analysis
cache is reached under it too, and under every other node's lock
(:mod:`repro.cache.analysis_cache` says why that is safe).  Renders,
and a waiter's block on a flight, run outside it; nothing called under
it enters another store.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.cache.analysis import InvalidationPolicy
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.entry import PageEntry, QueryInstance
from repro.cache.flight import Flight
from repro.cache.invalidation import Invalidator
from repro.cache.page_cache import PageCache
from repro.cache.replacement import make_policy
from repro.cache.semantics import SemanticsRegistry
from repro.cache.stats import CacheStats
from repro.locks import NamedRLock
from repro.web.http import HttpRequest


class Cache:
    """One node's page store.  ``analysis_cache`` is the ring's (the
    router builds it): the store analyses through it and builds none."""

    def __init__(
        self,
        analysis_cache: AnalysisCache,
        invalidation_policy: InvalidationPolicy = InvalidationPolicy.EXTRA_QUERY,
        replacement: str = "unbounded",
        capacity: int | None = None,
        max_bytes: int | None = None,
        semantics: SemanticsRegistry | None = None,
        clock: Callable[[], float] = time.time,
        forced_miss: bool = False,
        coalesce: bool = True,
    ) -> None:
        self.semantics = semantics or SemanticsRegistry()
        self.clock = clock
        #: The only lock in the cache core (module docstring).
        self.lock = NamedRLock("cache-facade")
        #: When True every lookup misses but all other machinery runs --
        #: the paper's cache-overhead measurement mode (Section 6).
        self.forced_miss = forced_miss
        #: Coalesce concurrent misses on one key into a single servlet
        #: execution (disabled in forced-miss mode, where every request
        #: must execute to measure overhead).
        self.coalesce = coalesce and not forced_miss
        policy = make_policy(
            replacement, capacity, order_only=max_bytes is not None
        )
        self.pages = PageCache(policy, max_bytes=max_bytes)
        self.stats = CacheStats()
        self.stats.guard = self.lock
        self.invalidator = Invalidator(
            self.pages,
            analysis_cache,
            self.stats,
            invalidation_policy,
        )
        #: Told the keys that left this store for capacity or expiry.
        #: The cluster router listens: it dooms the entries assembled
        #: from an evicted fragment's text.  Runs under the facade lock,
        #: so a listener may only take note.
        self.on_evicted: Callable[[set[str]], object] | None = None
        # -- open computations + the staleness window
        #: Key -> the tokens of its open computations, oldest first: at
        #: most one published flight, plus private windows (several solo
        #: computations of one key may overlap).
        self._open: dict[str, list[Flight]] = {}
        #: Monotonic counter bumped per invalidation event; tokens
        #: snapshot it to detect writes overlapping their computation.
        self._write_seq = 0
        #: (seq, write instance) buffer, kept only while tokens are open.
        self._recent_writes: list[tuple[int, QueryInstance]] = []

    def sync_catalog(self, database) -> None:
        """Nothing to do: the router mirrors the schema catalog into the
        one engine every node analyses through
        (:meth:`ClusterRouter.sync_catalog`).  Kept for the benchmark's
        tracing hook, which wraps every facade method name on ``Cache``
        (``bench/tracing.py``, ``FACADE_METHODS``)."""

    # -- read path -------------------------------------------------------------------

    def is_cacheable(self, request: HttpRequest) -> bool:
        """Cacheability per the semantics registry (hidden-state rules)."""
        return self.semantics.is_cacheable(request)

    def check(self, request: HttpRequest) -> PageEntry | None:
        """Cache check for a read request; updates statistics.

        Returns the entry on a hit, None on a miss (with the miss reason
        recorded against the request's URI).
        """
        return self.check_key(request.cache_key(), request.uri)

    def check_key(self, key: str, stat_uri: str) -> PageEntry | None:
        """Cache check by key (pages *and* fragments; statistics bucket
        under ``stat_uri``)."""
        with self.lock:
            if self.forced_miss:
                # Overhead-measurement mode: pay the lookup, report a
                # miss, execute the request normally (Section 6, TPC-W
                # overhead).
                self.stats.record_miss(stat_uri, "cold")
                return None
            entry, reason = self.pages.lookup(key, self.clock())
            if entry is not None:
                self.stats.record_hit(stat_uri, semantic=entry.semantic)
                return entry
            self.stats.record_miss(stat_uri, reason)
            if reason == "expired" and self.on_evicted is not None:
                self.on_evicted({key})
            return None

    def fast_check(self, key: str, uri: str) -> PageEntry | None:
        """Hit-or-nothing probe for the event-loop fast path, by the
        request's cache key and URI (no request object is built).

        Semantics differ from :meth:`check` in exactly one way: a miss
        records *nothing*.  The async server falls through to the full
        woven pipeline on a miss, and the `ReadServletAspect` check
        there records the lookup once, with the correct miss taxonomy
        (which :meth:`PageCache.lookup` pops destructively -- so this
        probe must not consume it).  A hit is terminal on the fast path
        and is recorded here, identically to :meth:`check`.  While the
        semantics registry holds a request predicate every probe
        misses, so the woven check evaluates it on the real request.
        """
        if self.forced_miss or not self.semantics.is_cacheable_uri(uri):
            return None
        with self.lock:
            entry = self.pages.hit(key, self.clock())
            if entry is None:
                return None
            self.stats.record_hit(uri, semantic=entry.semantic)
            return entry

    def insert(
        self,
        request: HttpRequest,
        body: str,
        reads: list[QueryInstance],
        status: int = 200,
        window: Flight | None = None,
        guard_reads: Sequence[QueryInstance] = (),
        expires_at: float | None = None,
    ) -> PageEntry:
        """Cache the page generated for ``request`` (cache insert).

        ``window`` is the caller's computation token, from
        :meth:`join_flight` or :meth:`begin_window`.  The insert is
        first checked against the writes processed while that
        computation ran: if any would invalidate the page, the entry is
        *not* stored (the caller still serves the body it computed --
        equivalent to a request finishing just before the write) and the
        token is marked stale so its waiters recompute.
        """
        entry, _stored = self.insert_key(
            request.cache_key(),
            body,
            reads,
            status=status,
            window=window,
            ttl_uri=request.uri,
            guard_reads=guard_reads,
            expires_at=expires_at,
        )
        return entry

    def insert_key(
        self,
        key: str,
        body: str,
        reads: list[QueryInstance],
        status: int = 200,
        window: Flight | None = None,
        ttl_uri: str | None = None,
        guard_reads: Sequence[QueryInstance] = (),
        expires_at: float | None = None,
    ) -> tuple[PageEntry, bool]:
        """Key-level insert shared by pages and fragments.

        ``ttl_uri`` resolves the semantic TTL window (fragments pass
        their stat URI so per-fragment windows and the default TTL
        apply).  ``guard_reads`` extend
        the insert-time staleness check *without* becoming dependency
        registrations: an embedded fragment's dependencies are carried
        by the fragment entry, but a write that doomed the fragment
        while this body was being computed doomed this body too, so the
        guard must see them.  ``expires_at`` caps the entry's expiry: the
        earliest expiry among the fragment entries the body embeds (a
        body outliving a TTL'd fragment would serve its text past the
        window).  The cap does not make the entry semantic: its own
        reads still register.

        ``window`` is judged alone: only writes processed after it
        opened can refuse the insert, and only it is handed the entry
        (which a published token's waiters then serve).

        Returns ``(entry, stored)``; ``stored`` is False when the
        staleness check discarded the insert.
        """
        now = self.clock()
        ttl = self.semantics.ttl_for(ttl_uri) if ttl_uri is not None else None
        expiry = (now + ttl) if ttl is not None else None
        if expires_at is not None and (expiry is None or expires_at < expiry):
            expiry = expires_at
        entry = PageEntry(key, body, status, tuple(reads), expiry, ttl is not None)
        with self.lock:
            if (
                window is not None
                and not window.stale
                # Only with buffered writes is there anything the
                # computation could have overlapped; the guard list is
                # built for that case alone.
                and self._recent_writes
                and self._overlapping_write(window, [*reads, *guard_reads])
            ):
                window.stale = True
            if window is not None and window.stale:
                self.stats.record_stale_insert()
                return entry, False
            evicted = self._store(entry)
            self.stats.record_insert(evictions=len(evicted))
            if window is not None:
                window.entry = entry
        return entry, True

    def adopt(self, entry: PageEntry) -> None:
        """Store an entry that was built elsewhere (a page moved in by
        ring rebalancing).  No staleness check, no statistics: the
        insert was judged and accounted for where it happened.
        """
        with self.lock:
            self._store(entry)

    def release(self, moving: Callable[[str], bool]) -> list[PageEntry]:
        """Remove and return the entries whose key ``moving`` selects,
        recording no miss reason (ring rebalancing moves them to another
        node; a crashed node drops them), so a later lookup here is a
        plain cold miss."""
        with self.lock:
            return [self.pages.release(key) for key in self.pages.keys() if moving(key)]

    def _store(self, entry: PageEntry) -> list[PageEntry]:
        """Caller holds the lock."""
        return self.pages.insert(entry, self._victims_left)

    def _victims_left(self, victims: list[PageEntry]) -> None:
        """:meth:`PageCache.insert`'s eviction hook (lock held)."""
        if self.on_evicted is not None:
            self.on_evicted({victim.key for victim in victims})

    def _overlapping_write(
        self, flight: Flight, reads: list[QueryInstance]
    ) -> bool:
        """Did a write that invalidates ``reads`` land mid-computation?

        Caller holds the lock.  The buffered invalidation
        information carries pre-images, so this is the exact same
        precision as the normal invalidation protocol.
        """
        intervening = [
            write
            for seq, write in self._recent_writes
            if seq > flight.start_seq
        ]
        if not intervening:
            return False
        return self.invalidator.intersects_any(reads, intervening)

    # -- computation tokens: single-flight coalescing + the staleness window ----------

    def join_flight(self, key: str) -> tuple[Flight, bool]:
        """Join ``key``'s published flight, or open and publish one.

        Returns ``(flight, is_leader)``.  With ``coalesce`` off the token
        is private and the caller always leads.  The leader passes the
        token to its insert and must call :meth:`finish_flight` on every
        exit path; waiters call :meth:`wait_flight`.
        """
        with self.lock:
            flight = self._published(key)
            if flight is not None:
                flight.join()
                return flight, False
            return self._open_token(key, self.coalesce), True

    def begin_window(self, key: str) -> Flight:
        """Open a private token for a solo computation (a waiter out of
        flight attempts): the same staleness window as a flight, never
        joined by anyone.  Pass it to :meth:`insert` and close it with
        :meth:`end_window` on every exit path.
        """
        with self.lock:
            return self._open_token(key, False)

    def _open_token(self, key: str, published: bool) -> Flight:
        """Caller holds the lock.  Every computation runs under a token:
        without one a write landing between its database reads and its
        insert dooms nothing (the page has no dependency rows yet), and
        the stale page would be stored and served until the *next* write
        for the same data."""
        flight = Flight(key, self._write_seq, published)
        self._open.setdefault(key, []).append(flight)
        return flight

    def _published(self, key: str) -> Flight | None:
        """Caller holds the lock."""
        for flight in self._open.get(key, ()):
            if flight.published:
                return flight
        return None

    def wait_flight(self, flight: Flight) -> PageEntry | None:
        """Block until the leader finishes; return the page to serve.

        ``None`` means the waiter must recompute: the leader failed,
        produced an uncacheable page, or an invalidation arrived during
        the computation (the stale-body rule).
        """
        flight.wait()
        with self.lock:
            if flight.stale or flight.entry is None:
                return None
            return flight.entry

    def finish_flight(self, flight: Flight) -> None:
        """Close a token and wake its waiters (the computation's
        finally-block)."""
        with self.lock:
            tokens = self._open.get(flight.key)
            if tokens is not None and flight in tokens:
                tokens.remove(flight)
                if not tokens:
                    del self._open[flight.key]
            if not self._open:
                # No open computations: the staleness window is empty.
                self._recent_writes.clear()
            flight.finished = True
        flight.wake()

    #: A window closes exactly like a flight.
    end_window = finish_flight

    @property
    def open_flights(self) -> int:
        """Open published flights (private windows are not counted)."""
        with self.lock:
            return sum(
                flight.published
                for tokens in self._open.values()
                for flight in tokens
            )

    def flight_for(self, key: str) -> Flight | None:
        """The published flight for ``key``, if any (observability)."""
        with self.lock:
            return self._published(key)

    def open_flight_keys(self) -> list[str]:
        """Keys with an open computation, published or private (cluster
        rebalancing reads these to poison computations whose key is
        moving to another node)."""
        with self.lock:
            return list(self._open)

    def poison_flights(self, keys: set[str]) -> None:
        """Mark the given open flights stale so their eventual inserts
        are discarded (waiters recompute).  Used when ring membership
        changes re-home a key out from under an in-flight computation."""
        with self.lock:
            self._mark_flights_stale(keys)

    def _mark_flights_stale(self, keys: set[str]) -> None:
        """Caller holds the lock."""
        for key in keys:
            for flight in self._open.get(key, ()):
                flight.stale = True

    # -- write path -------------------------------------------------------------------

    def process_write_request(self, uri: str, writes: list[QueryInstance]) -> set[str]:
        """Run invalidation for a completed write request."""
        with self.lock:
            self.stats.record_write(uri)
        return self.apply_writes(writes)

    def apply_writes(self, writes: list[QueryInstance]) -> set[str]:
        """Invalidate everything ``writes`` affects, without recording a
        write request.

        This is the consistency half of :meth:`process_write_request`:
        buffer the invalidation information for open flights (so the
        staleness window covers computations overlapping the write),
        doom affected pages, and mark doomed in-flight computations
        stale.  The cluster invalidation bus calls this on every node --
        the write *request* happened once, but its invalidation pass
        must run everywhere.
        """
        if not writes:
            return set()
        with self.lock:
            if self._open:
                # Buffer the invalidation info for open computations'
                # insert-time staleness check.
                self._write_seq += 1
                seq = self._write_seq
                self._recent_writes.extend((seq, write) for write in writes)
                # Evicted flight entries: a stored insert can leave the
                # store before its flight closes (a later insert evicts
                # it, taking its dependency rows along), so the doom
                # pass below cannot see it -- but the flight still hands
                # it to waiters, including ones that join after this
                # write.  An intersecting write must mark the flight
                # stale here, or a waiter could serve a body staler
                # than the write's commit point.
                for tokens in self._open.values():
                    for flight in tokens:
                        entry = flight.entry
                        if (
                            entry is not None
                            and flight.published
                            and not flight.stale
                            and entry.key not in self.pages
                            and self.invalidator.intersects_any(
                                list(entry.dependencies), writes
                            )
                        ):
                            flight.stale = True
            doomed = self.invalidator.process_writes(writes)
            # A doomed key with an open flight: the invalidation must
            # win over the in-flight computation's eventual insert.
            self._mark_flights_stale(doomed)
            return doomed

    # -- management ----------------------------------------------------------------------

    def record_uncacheable(self, request: HttpRequest) -> None:
        with self.lock:
            self.stats.record_uncacheable(request.uri)

    def invalidate_key(self, key: str) -> bool:
        """External invalidation API (the DynamicWeb/Weave-style hook the
        paper suggests for updates bypassing the application)."""
        with self.lock:
            self._write_seq += 1
            self._mark_flights_stale({key})
            removed = self.pages.invalidate(key)
            if removed:
                self.stats.record_invalidated()
            return removed

    def clear(self) -> None:
        with self.lock:
            self.pages.clear()

    def __len__(self) -> int:
        return len(self.pages)

    def __contains__(self, key: str) -> bool:
        return key in self.pages
