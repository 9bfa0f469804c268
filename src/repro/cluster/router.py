"""The cache facade: a router over N node stores (N >= 1).

:class:`ClusterRouter` is the one object the caching aspects, the
computation driver and the async server's fast path talk to --
``is_cacheable`` / ``check`` / ``insert`` / ``join_flight`` /
``wait_flight`` / ``finish_flight`` / ``process_write_request`` -- and
a single node is simply the one-node ring.  Reads route by consistent
hash to the owning node's :class:`~repro.cache.api.Cache` (reusing that
node's single-flight machinery untouched); writes are broadcast to
*every* node through the sequence-numbered invalidation bus, which is
what extends the write-sequence staleness window across nodes: a page
computed on node A while a write lands via node B is discarded at
insert, exactly as intra-node overlapping flights are.  What spans
entries lives here and nowhere else: the fragment containment table and
its closure, and the front-end counters.  So does the SQL analysis:
the router builds the one :class:`~repro.cache.analysis.
QueryAnalysisEngine` and :class:`~repro.cache.analysis_cache.
AnalysisCache` every node's invalidator analyses through, mirrors the
schema catalog into it once per schema epoch, captures the row witness
and plans an INSERT's partner probes.  A node holds pages.  A write's
instances are deduplicated here, once; its bound side is computed once
per ring too, by the first node to need each value, and shared through
the bus message (:mod:`repro.cluster.bus`).

Locks: the router's one lock covers its routing state, its containment
table and its front-end statistics; each node's cache has its own (the
facade lock).  Router -> bus -> node cache is the only nesting, and no
two node caches are ever held at once.

**Routing** is a pure function of (key, ring, node states, membership
verdicts), so it is decided once per key per *placement* and memoized
in a snapshot that every change to those inputs replaces: the router's
own node-set changes, and the ring's and the membership's through
their change hooks.  A
warm route is one read of the snapshot and one dict lookup, with no
lock and no hash; a fill takes the router lock and keeps its answer only
if no change replaced the snapshot while it was computed
(docs/cluster.md, "Routing").

**Computations** open on the key's owner, and their token
(:class:`~repro.cache.flight.Flight`) records that node: a computation
must ``insert`` and close on the node where it was opened, even if ring
membership changes mid-flight, so the router sends every later
operation on the token there.  Membership changes additionally poison
computations whose key is re-homed, so their inserts are discarded
rather than orphaned on a node that no longer owns the key.  Opens take
no router lock, so a computation may be opened from a route a
concurrent change is retiring.  It escapes the poison pass only by
opening on a node that keeps hearing the bus (the old owner, after
:meth:`add_node`); a node that stops serving poisons what is open on it
as it goes, and the router checks the node's state after each open and
routes again if it has gone (:meth:`CacheNode.mark_left`).

**Membership** (:class:`~repro.cluster.membership.GossipMembership`):
join/leave/crash does not quiesce the bus.  Planned changes migrate
entries under a sequence-number audit -- if any publish interleaved
with the move, the moved keys are conservatively invalidated (a miss,
never staleness).  Crashes are detected by gossip suspicion; a node the
router's view declares DEAD is evicted from the ring and its keys fail
over, cold, to their ring successor.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

from repro.cache.analysis import InvalidationPolicy, QueryAnalysisEngine, probe_plan
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.api import Cache
from repro.cache.entry import PageEntry, QueryInstance
from repro.cache.flight import Flight
from repro.cache.fragments import FragmentContainment
from repro.cache.invalidation import dedupe_writes
from repro.cache.semantics import SemanticsRegistry
from repro.cache.stats import CacheStats
from repro.cluster.bus import InvalidationBus
from repro.cluster.membership import DEAD, ROUTER, GossipMembership
from repro.cluster.node import JOINED, CacheNode
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.errors import ClusterError
from repro.locks import NamedRLock
from repro.sql.lineage import Catalog
from repro.sql.template import QueryTemplate
from repro.web.http import HttpRequest

#: A key's placement: the node that serves it -- its ring owner while
#: that node is live, else the failover stand-in; None when no node is.
Route = CacheNode | None

#: Most routes the placement memo keeps; a full memo is emptied (the
#: policy of the server's head memo and the database's plan cache).
_ROUTE_MEMO_LIMIT = 4096


def _add_counts(into: dict, counts: dict) -> None:
    """Sum a dict of counters into ``into``, key by key."""
    for key, count in counts.items():
        into[key] = into.get(key, 0) + count


class ClusterStats:
    """The facade's statistics: a view over per-node :class:`CacheStats`.

    Per-node counters stay the source of truth (each node's accounting
    must be exact on its own); this object sums them on read and adds a
    front-end ledger for events that belong to the router rather than
    any node: write requests (processed once, broadcast everywhere) and
    the extra queries their request ran, coalesced serves and hole
    skips (recorded by the aspects against the facade), inserts refused
    because an embedded fragment was gone, and duplicate writes dropped
    before broadcast.  The router records them under its lock, which
    the ledger's snapshot takes too.
    """

    def __init__(self, router: "ClusterRouter") -> None:
        self._router = router
        #: Front-end events (class docstring).
        self.frontend = CacheStats()
        self.frontend.guard = router._lock
        #: Duplicate write instances the router dropped before
        #: broadcast; reported with the bus counters.
        self.writes_deduped = 0

    def _sum(self, attribute: str) -> int:
        total = getattr(self.frontend, attribute)
        for node in self._router.nodes():
            total += getattr(node.cache.stats, attribute)
        return total

    @property
    def misses(self) -> int:
        return (
            self.misses_cold
            + self.misses_invalidation
            + self.misses_capacity
            + self.misses_expired
        )

    @property
    def hit_rate(self) -> float:
        cacheable = self.hits + self.semantic_hits + self.misses
        if not cacheable:
            return 0.0
        return (self.hits + self.semantic_hits) / cacheable

    def snapshot(self) -> dict:
        """The one statistics shape: ``{"cluster": aggregate, "nodes":
        [...], "bus": {...}, "membership": {...}}``.

        The aggregate is a :meth:`CacheStats.snapshot` dict (per-type
        breakdown included) summed over the front-end ledger and the
        per-node snapshots listed beside it, one consistent read per
        node.
        """
        nodes = [node.snapshot() for node in self._router.nodes()]
        aggregate = self.frontend.snapshot()
        by_type = aggregate["by_type"]
        for node_snapshot in nodes:
            for key, value in node_snapshot["stats"].items():
                if key == "hit_rate":
                    continue
                if key == "by_type":
                    for uri, counts in value.items():
                        _add_counts(by_type.setdefault(uri, {}), counts)
                elif isinstance(value, dict):  # dooms_by_template
                    _add_counts(aggregate[key], value)
                else:
                    aggregate[key] += value
        cacheable = (
            aggregate["hits"] + aggregate["semantic_hits"] + aggregate["misses"]
        )
        aggregate["hit_rate"] = (
            (aggregate["hits"] + aggregate["semantic_hits"]) / cacheable
            if cacheable
            else 0.0
        )
        bus = self._router.bus
        return {
            "cluster": aggregate,
            "nodes": nodes,
            "bus": {
                "seq": bus.seq,
                "published": bus.stats.published,
                "delivered": bus.stats.delivered,
                "writes_deduped": self.writes_deduped,
                "pages_invalidated": bus.stats.pages_invalidated,
            },
            "membership": self._router.membership.snapshot(),
        }


# The CacheStats read interface: every ``int`` counter reads as the
# front-end ledger plus the per-node sum.  Generated from the dataclass,
# so a counter added to CacheStats cannot be missing from this view.
for _field in dataclasses.fields(CacheStats):
    if _field.type in (int, "int"):
        setattr(
            ClusterStats,
            _field.name,
            property(lambda self, _name=_field.name: self._sum(_name)),
        )


class ClusterRouter:
    """The cache facade: routes every operation across the ring.

    ``catalog`` seeds the ring's analysis engine; every other keyword is
    a :class:`~repro.cache.api.Cache` option, the same for every node.
    """

    def __init__(
        self,
        node_names: list[str],
        vnodes: int = DEFAULT_VNODES,
        membership: GossipMembership | None = None,
        catalog: Catalog | None = None,
        **cache_options,
    ) -> None:
        if not node_names:
            raise ClusterError("a cluster needs at least one node")
        if len(set(node_names)) != len(node_names):
            raise ClusterError("duplicate node names")
        self._lock = NamedRLock("cluster-router")
        self.ring = HashRing(vnodes=vnodes)
        # The nodes' shared configuration, read by the aspects.  One
        # semantics registry, shared by reference: cacheability and TTL
        # windows are ring-wide policy, not per-shard state.
        self.semantics = cache_options.get("semantics") or SemanticsRegistry()
        self.clock = cache_options.setdefault("clock", time.time)
        self.invalidation_policy = cache_options.setdefault(
            "invalidation_policy", InvalidationPolicy.EXTRA_QUERY
        )
        self._cache_options = dict(cache_options, semantics=self.semantics)
        #: The ring's one analysis stack: every node's invalidator
        #: analyses through it, so a template pair is analysed once.
        self.engine = QueryAnalysisEngine(catalog=catalog)
        self.analysis_cache = AnalysisCache(self.engine)
        #: Tables a woven write has reached.  A read captures its row
        #: witness (:meth:`witness`) only over these: before a table's
        #: first write nothing could use one, so a read-only workload
        #: captures nothing.  Only ever grows; one ``set.add`` by the
        #: JDBC aspect per write, read without the lock.
        self.written_tables: set[str] = set()
        #: Guard for :meth:`sync_catalog`: the database last mirrored
        #: into the engine's catalog and its schema epoch at that moment.
        self._catalog_source: tuple[object, int] | None = None
        #: Write template text -> (memo key, its probe plan):
        #: :meth:`probe_plan`'s memo.
        self._probe_plans: dict[str, tuple[tuple, tuple]] = {}
        #: Probe plans computed rather than found in the memo (counted
        #: without a lock: exact single-threaded, as ``make profile``
        #: reads it).
        self.probe_plans_built = 0
        self.bus = InvalidationBus()
        self.membership = membership or GossipMembership(clock=self.clock)
        self._nodes: dict[str, CacheNode] = {}
        #: The nodes as a tuple, replaced (under the router lock) with
        #: every change to ``_nodes``: read without the lock.
        self._members: tuple[CacheNode, ...] = ()
        #: The placement snapshot: (the route of every key or None,
        #: key -> :data:`Route`), one tuple so a lock-free reader sees a
        #: consistent pair; replaced, never cleared, by every change to
        #: the node set, a node's lifecycle state or a membership
        #: verdict.  A one-member ring routes every key to its member, so
        #: it memoizes that one route.
        self._placement: tuple[Route, dict[str, Route]] = (None, {})
        #: Moved by every replacement of the snapshot: a fill that saw it
        #: move while it computed or stored keeps nothing.
        self._generation = 0
        self.ring.on_change = self.membership.on_change = self._placement_changed
        #: Routes computed rather than found in the memo.
        self.routes_computed = 0
        self.stats = ClusterStats(self)
        #: Which cached entries embed which cached fragments: dooming a
        #: fragment must doom every entry assembled from its text.  A
        #: page and its fragments usually hash to *different* nodes, so
        #: the router keeps every edge (the nodes keep none) and routes
        #: closure invalidations to the holders.  Guarded by the router
        #: lock.
        self.fragments = FragmentContainment()
        #: Key sets that left some node's store for capacity or expiry
        #: (:attr:`Cache.on_evicted`), waiting for the containment
        #: closure: :meth:`_settle_evictions` runs it once the operation
        #: that caused them is out of the node's lock.
        self._evicted: list[set[str]] = []
        for name in node_names:
            self.add_node(name)

    # -- membership --------------------------------------------------------------------

    def nodes(self) -> list[CacheNode]:
        with self._lock:
            return list(self._nodes.values())

    def node(self, name: str) -> CacheNode:
        with self._lock:
            try:
                return self._nodes[name]
            except KeyError:
                raise ClusterError(f"no node named {name!r}") from None

    @property
    def node_names(self) -> list[str]:
        with self._lock:
            return sorted(self._nodes)

    def add_node(self, name: str, drain: bool = True) -> CacheNode:
        """Join ``name``: remap its key arc, move or drop the entries.

        With ``drain`` (default) pages whose key now hashes to the new
        node are *moved* there, dependencies intact; with ``drain=False``
        they are simply dropped (re-fetched on next miss).  Flights
        whose key is re-homed are poisoned either way: their insert no
        longer has a legitimate home.

        The move runs **without quiescing the bus** (writes keep
        flowing).  Correctness audit: the bus sequence number is
        snapshotted before the migration; if any publish interleaved, a
        moved entry may have been in transit (released from its old
        node, not yet inserted at its new one) when the invalidation
        pass ran, so every moved key is conservatively invalidated --
        an extra miss, never a stale page.
        """
        node = CacheNode(name, Cache(self.analysis_cache, **self._cache_options))
        node.cache.on_evicted = self._note_evicted
        with self._lock:
            if name in self._nodes:
                raise ClusterError(f"node {name!r} already joined")
            # ``bus.seq`` takes the bus lock, so it also waits out a
            # delivery pass in progress: the audit below starts from a
            # sequence number every node has applied.
            seq_before = self.bus.seq
            self.ring.add_node(name)
            self.membership.register(name)
            # Subscribe through a late-binding callable, not the bound
            # method: a bound method freezes the function at subscribe
            # time, which would bypass any advice woven onto
            # ``CacheNode.apply`` afterwards (delivery is a join point).
            node.rebase(
                self.bus.subscribe(
                    name, lambda message, _node=node: _node.apply(message)
                )
            )
            moved = 0
            moved_keys: list[str] = []
            #: Entries that left without a new home: as for an eviction,
            #: what other shards assembled from them must go too.
            dropped: set[str] = set()
            for other in self._nodes.values():
                for entry in other.cache.release(
                    lambda key: self.ring.node_for(key) == name
                ):
                    if drain:
                        node.cache.adopt(entry)
                        moved += 1
                        moved_keys.append(entry.key)
                    else:
                        dropped.add(entry.key)
                poisoned = {
                    key
                    for key in other.cache.open_flight_keys()
                    if self.ring.node_for(key) == name
                }
                other.cache.poison_flights(poisoned)
            self._nodes[name] = node
            self._members = tuple(self._nodes.values())
            self._placement_changed()
            node.moved_in = moved
            if self.bus.seq != seq_before:
                for key in moved_keys:
                    node.cache.invalidate_key(key)
            self._note_evicted(dropped)
        self._settle_evictions()
        return node

    def remove_node(self, name: str, drain: bool = True) -> CacheNode:
        """Leave ``name``: drain (or drop) its entries to the new owners.

        Open computations on the leaving node are poisoned; their tokens
        still name it, so their inserts land in its staleness check (and
        are discarded) instead of polluting a live node.  Removing
        the last node empties the ring; subsequent routed operations
        raise :class:`ClusterError`.

        Like :meth:`add_node` the drain runs without bus quiescence,
        under the same sequence-number audit: an interleaved publish
        conservatively invalidates the moved keys at their destinations.
        """
        with self._lock:
            node = self.node(name)
            self._placement_changed()
            node.mark_draining()  # poisons its open computations
            seq_before = self.bus.seq  # a lock barrier too (add_node)
            self.bus.unsubscribe(name)
            self.ring.remove_node(name)
            self.membership.forget(name)
            moved: list[tuple[CacheNode, str]] = []
            dropped: set[str] = set()  # as in add_node
            for entry in node.cache.release(lambda key: True):
                key = entry.key
                if not drain or not len(self.ring):
                    dropped.add(key)
                    continue
                target = self._nodes[self.ring.node_for(key)]
                target.cache.adopt(entry)
                moved.append((target, key))
            node.mark_left()
            del self._nodes[name]
            self._members = tuple(self._nodes.values())
            self._placement_changed()
            if self.bus.seq != seq_before:
                for target, key in moved:
                    target.cache.invalidate_key(key)
            self._note_evicted(dropped)
        self._settle_evictions()
        return node

    def silence_node(self, name: str) -> CacheNode:
        """Simulate a crash of ``name``: it stops serving, beating and
        gossiping, but nothing is *announced* -- detection is the gossip
        protocol's job.  Reads fail over immediately (the router can see
        the node is unreachable: ``state != JOINED``); the ring slot and
        bus subscription linger until :meth:`tick` observes the
        router-view DEAD verdict and calls :meth:`evict_node`.
        """
        with self._lock:
            node = self.node(name)
            self._placement_changed()
            node.mark_left()
            self.membership.silence(name)
        return node

    def evict_node(self, name: str) -> CacheNode | None:
        """Drop a crashed node from ring, bus and routing -- no drain
        (its memory is gone; its keys fail over cold to their ring
        successor).  Open computations' tokens still name it: their
        inserts land in the dead cache and are discarded with it,
        exactly as for a leave."""
        with self._lock:
            node = self._nodes.pop(name, None)
            if node is None:
                return None
            self._members = tuple(self._nodes.values())
            self._placement_changed()
            node.mark_left()  # poisons its open computations
            if name in self.bus.subscriber_names:
                self.bus.unsubscribe(name)
            if name in self.ring:
                self.ring.remove_node(name)
            self.membership.silence(name)
            # Model the crash faithfully: the node's memory is gone.
            # This also closes a detection race -- a reader that
            # resolved this node as owner just before the eviction
            # would otherwise probe a cache that can no longer hear
            # the bus (unsubscribed above) and could serve an entry
            # missing a post-eviction write.  An empty store turns
            # that probe into a miss.  What the node held is gone for
            # good, so whatever other shards assembled from its
            # fragments goes with it, as for a capacity eviction.
            self._note_evicted(
                {entry.key for entry in node.cache.release(lambda key: True)}
            )
        self._settle_evictions()
        return node

    def fail_node(self, name: str) -> CacheNode:
        """Crash ``name`` with immediate detection (tests, stress
        oracles): :meth:`silence_node` + :meth:`evict_node` in one step.
        Gossip-paced detection is the :meth:`silence_node` +
        :meth:`tick` pair."""
        node = self.silence_node(name)
        self.evict_node(name)
        return node

    def tick(self, now: float | None = None) -> list:
        """One membership round: heartbeat every serving node, run a
        gossip step, and act on *this router's* DEAD verdicts by
        evicting the peer from routing.  Returns the step's transitions
        (all observers) for tests and observability."""
        with self._lock:
            serving = [
                node.name
                for node in self._nodes.values()
                if node.state == JOINED
            ]
        for name in serving:
            self.membership.beat(name)
        transitions = self.membership.step(now)
        for transition in transitions:
            if transition.observer == ROUTER and transition.state == DEAD:
                self.evict_node(transition.peer)
        return transitions

    # -- routing ---------------------------------------------------------------------

    def _placement_changed(self) -> None:
        """The node set, a node's lifecycle state, the ring or a
        membership verdict changes: replace the placement snapshot with
        an empty one.  The router calls it under its lock, *before* a
        node leaves ``JOINED``, so whoever sees the new state also sees
        the new snapshot and routes afresh; the ring and the membership
        call it as their change hook (under the membership's lock: it
        only swaps attributes)."""
        self._generation += 1
        self._placement = (None, {})

    def _route(self, key: str) -> Route:
        """``key``'s placement, from the snapshot while no change has
        replaced it.

        A snapshot hit takes no lock.  Reading a route that a membership
        change is about to retire is the race routing always had -- the
        router lock was released before the node was called.  A probe
        that reaches a node after it was evicted finds an empty store
        (:meth:`evict_node`); a computation opened there is caught by
        the state check in :meth:`check_key` / :meth:`_open_on_owner`.
        """
        every, routes = self._placement
        if every is not None:
            return every
        route = routes.get(key)
        if route is not None:
            return route
        with self._lock:
            generation = self._generation
            route = self._compute_route(key)
            self.routes_computed += 1
            if len(self.ring) == 1:
                # The one member owns every key (:meth:`_compute_route`
                # reads the key only through the ring).
                self._placement = (route, {})
            else:
                every, routes = self._placement
                if every is not None or len(routes) >= _ROUTE_MEMO_LIMIT:
                    routes = {}
                    self._placement = (None, routes)
                routes[key] = route
            if self._generation != generation:
                # Membership moved while this was computed or stored (a
                # gossip step runs outside this lock): keep nothing.
                self._placement_changed()
            return route

    def _compute_route(self, key: str) -> Route:
        """The placement rule itself (caller holds the router lock).

        The key's ring owner serves it while that node is joined and
        the router's membership view has not declared it dead.
        Otherwise the first joined node further round the ring stands
        in, cold (detection may simply not have caught up; any
        consistent stand-in preserves safety -- the bus reaches it too).
        """
        name = self.ring.node_for(key)
        node = self._nodes.get(name)
        if (
            node is not None
            and node.state == JOINED
            and self.membership.is_alive(name)
        ):
            return node
        if self._nodes:
            for name in self.ring.nodes_for(key, len(self._nodes)):
                node = self._nodes.get(name)
                if node is not None and node.state == JOINED:
                    return node
        return None

    def _owner(self, key: str) -> CacheNode:
        """The node ``key``'s probes, computations and inserts go to
        (a warm route read inline: the snapshot, then :meth:`_route`)."""
        every, routes = self._placement
        owner = every or routes.get(key) or self._route(key)
        if owner is None:
            raise ClusterError(f"no live cache node is reachable for key {key!r}")
        return owner

    def owner_name(self, key: str) -> str:
        """Which node ``key`` routes to (diagnostics, sim, tests)."""
        return self._owner(key).name

    @property
    def route_memo_size(self) -> int:
        """Routes the placement snapshot holds."""
        every, routes = self._placement
        return 1 if every is not None else len(routes)

    def sync_catalog(self, database) -> None:
        """Mirror ``database``'s schemas into the ring's analysis engine.

        Reached lazily from the JDBC aspect on statement interception
        (the woven driver is the first place the application's database
        becomes visible).  Guarded by the database's schema epoch
        (every ``create_table`` / ``drop_table`` moves it), so a
        steady-state statement pays one comparison and takes no lock,
        and the catalog is built once per epoch for the whole ring: the
        nodes, a late joiner included, analyse through the one engine.
        A new catalog retires every catalog-derived memo (they key by
        the catalog they were computed under).  Sound either way:
        without a catalog (or with a database that reports no epoch)
        the column analysis simply stays at its conservative wildcard
        behaviour.
        """
        epoch = getattr(database, "schema_epoch", None)
        if epoch is None:
            return
        source = self._catalog_source
        if source is not None and source[0] is database and source[1] == epoch:
            return
        with self._lock:
            self._catalog_source = source = (database, epoch)
        catalog = Catalog.from_database(database)  # takes the database lock
        with self._lock:
            # Swaps are serialised here; a sync for a later epoch that
            # overtook this one has installed the newer catalog.
            if self._catalog_source is source:
                self.engine.set_catalog(catalog)

    def witness(
        self, template: QueryTemplate, rows: Sequence[Sequence[object]]
    ) -> tuple[tuple[int, tuple[object, ...]], ...] | None:
        """The row witness of a read that returned ``rows``: for each
        written table whose primary key the read projects, its output
        position and the keys shown (None when there is none).  Captured
        once, at the front end: every node tests the same instance."""
        positions = self.engine.key_positions(template)
        if not positions:
            return None
        written = self.written_tables
        found = tuple(
            (position, tuple([row[position] for row in rows]))
            for table, position in positions
            if table in written
        )
        return found or None

    def probe_plan(self, template: QueryTemplate) -> tuple[tuple[str, str, str], ...]:
        """The partner probes an INSERT of ``template`` must run under
        ``ROW_WITNESS``: ``(column, partner table, partner column)`` for
        every partner edge it has with a read template registered on any
        node (:func:`~repro.cache.analysis.probe_plan`), so one probe per
        write serves every node the bus delivers it to.

        One memo per ring, keyed on the node set, the catalog version
        and, per node, the stamp of the template's tables (:meth:`~repro.cache.
        dependency.DependencyTable.stamp`): a steady set of templates on
        those tables costs no lock round.  The key is read without any
        lock.  A stamp moves when a template is registered, before any
        reader takes it in, and is read before the candidates, so a plan
        never misses a template registered before it was read; one
        listing a template just retired probes for nothing.
        """
        nodes, tables = self._members, template.tables
        key = (
            nodes,
            self.engine.catalog_version,
            *[node.cache.pages.dependencies.stamp(tables) for node in nodes],
        )
        memo = self._probe_plans.get(template.text)
        if memo is not None and memo[0] == key:
            return memo[1]
        reads = set()
        for node in nodes:
            with node.cache.lock:
                dependencies = node.cache.pages.dependencies
                reads.update(dependencies.candidate_templates(tables)[0])
        plan = probe_plan(self.engine, reads, template)
        self._probe_plans[template.text] = (key, plan)
        self.probe_plans_built += 1
        return plan

    # -- read path ---------------------------------------------------------------------

    def is_cacheable(self, request: HttpRequest) -> bool:
        return self.semantics.is_cacheable(request)

    def check(self, request: HttpRequest) -> PageEntry | Flight | None:
        """The woven cache check, on the key's owner: the entry on a
        hit.  On a miss, the **miss record** -- the token of the
        computation the caller now leads there, opened in the check's
        lock round and naming the node -- which :meth:`insert` consumes;
        or None when a computation of the key is open already (join it
        with :meth:`join_flight`)."""
        return self.check_key(request.cache_key(), request.uri)

    def check_key(self, key: str, stat_uri: str) -> PageEntry | Flight | None:
        """:meth:`check` by key (pages and fragments)."""
        every, routes = self._placement  # a warm route, inline
        node = every or routes.get(key) or self._owner(key)
        found = node.cache.check_or_lead(key, stat_uri)
        if self._evicted:  # the probe found the entry expired
            self._settle_evictions()
        if type(found) is Flight:
            found.node = node
            if node.state != JOINED:
                # Opened from a route a leave was retiring: nothing
                # would doom this computation.  Close it; the caller
                # joins through :meth:`join_flight`, which routes again.
                node.cache.finish_flight(found)
                return None
        return found

    def fast_check(self, key: str, uri: str) -> PageEntry | None:
        """Event-loop fast-path probe, routed to the owning shard.

        Same contract as :meth:`Cache.fast_check`: hit-or-nothing, a
        miss records no statistics and leaves the shard's miss taxonomy
        intact for the woven check that follows.
        """
        every, routes = self._placement  # a warm route, inline
        return (every or routes.get(key) or self._owner(key)).cache.fast_check(key, uri)

    def insert(
        self,
        request: HttpRequest,
        body: str,
        reads: list[QueryInstance],
        status: int = 200,
        window: Flight | None = None,
        fragments: Sequence[str] = (),
        guard_reads: Sequence[QueryInstance] = (),
        expires_at: float | None = None,
    ) -> PageEntry:
        # Positional: the miss path's every insert passes here.
        entry, _stored = self.insert_key(
            request.cache_key() if window is None else window.key,
            body, reads, status, window, request.uri, fragments, guard_reads, expires_at,
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
        fragments: Sequence[str] = (),
        guard_reads: Sequence[QueryInstance] = (),
        expires_at: float | None = None,
    ) -> tuple[PageEntry, bool]:
        """Key-level insert, on the node ``window`` was opened on (the
        owner for a token-less insert).

        Containment edges are recorded in the *router's* table: the
        entry and its fragments typically live on different shards.
        They go in *before* the check that every embedded fragment is
        still resident on its holder (a fragment gone while the
        body rendered refuses the insert, counted as a stale insert): a
        fragment evicted after the check then finds the container
        through its edge (:meth:`_settle_evictions`), which dooms it or
        poisons its computation.  They are added, never replaced, and
        stay when nothing is stored (:meth:`FragmentContainment.add`);
        the key's next doom or eviction drops them.

        The insert consumes ``window``: it closes it, stored or not, in
        its own lock round (a refused insert's close included).
        """
        node = window.node if window is not None else self._owner(key)
        if fragments:
            with self._lock:
                self.fragments.add(key, fragments)
                resident = all(self._holds(fragment) for fragment in fragments)
                if not resident:
                    self.stats.frontend.record_stale_insert()
            if not resident:
                if window is not None:
                    node.cache.finish_flight(window)
                return PageEntry(key, body, status), False
        entry, stored = node.cache.insert_key(
            key, body, reads, status, window, ttl_uri, guard_reads, expires_at
        )
        if stored and self._evicted:
            self._settle_evictions()
        return entry, stored

    def _note_evicted(self, keys: set[str]) -> None:
        """:attr:`Cache.on_evicted`: note ``keys`` for the containment
        closure (:meth:`_settle_evictions`), which runs once the
        reporting node's lock is released.

        Keys without a containment edge -- every key, while no entry
        embeds a fragment -- leave nothing to close, so they are not
        noted and no router lock is taken for them.  The edge table is
        read without the router lock, which is safe under any
        interleaving with an insert: the insert adds its edge before its
        :meth:`_holds` check, and a store removes an entry before it
        reports it.  So either this sees the edge (and the key is
        noted), or the edge came after the removal and the insert's
        check finds the fragment gone and refuses the insert.
        """
        if self.fragments.touches(keys):
            self._evicted.append(keys)

    def _settle_evictions(self) -> None:
        """The eviction rule.

        A node reports what left its store for capacity or expiry
        (:attr:`Cache.on_evicted`) but holds no containment edges; the
        router's table names the containers (and forgets the departed
        keys' own edges).  A container registers only its own,
        outside-fragment reads, so once an embedded fragment is gone no
        write could doom the container's copy of its text: it is doomed
        now, exactly as when a write dooms the fragment.  Called outside
        every node lock.  A key set is popped and closed over in one
        router-lock section, so a write that takes the lock after it
        finds the closure done (:meth:`process_write_request`)."""
        with self._lock:
            while self._evicted:
                self._doom_containers(self._evicted.pop())

    def record_uncacheable(self, request: HttpRequest) -> None:
        self._owner(request.cache_key()).cache.record_uncacheable(request)

    # Front-end events: recorded in the router's own ledger, under its
    # lock (:class:`ClusterStats`).

    def record_coalesced(self, uri: str) -> None:
        with self._lock:
            self.stats.frontend.record_coalesced(uri)

    def record_hole_skip(self) -> None:
        with self._lock:
            self.stats.frontend.record_hole_skip()

    # -- computations (each on the node its token records) ----------------------------

    def join_flight(self, key: str) -> tuple[Flight, bool]:
        """Join ``key``'s flight on its owner, or lead one there."""
        return self._open_on_owner(key, publish=True)

    def begin_window(self, key: str) -> Flight:
        """Open a private computation token on ``key``'s owner."""
        return self._open_on_owner(key, publish=False)[0]

    def _open_on_owner(self, key: str, publish: bool) -> tuple[Flight, bool]:
        """Open (or join) a computation of ``key`` on its owner and record
        the node on the token, which routes the token's wait, insert and
        close.  Takes no router lock.  A leader whose node stopped
        serving before the token opened (routed from a route a leave was
        retiring: nothing would doom that computation) closes its empty
        token and routes again.  A waiter needs no such check: the
        flight it joined is poisoned, closed empty, or on a live node."""
        while True:
            node = self._owner(key)
            if publish:
                flight, is_leader = node.cache.join_flight(key)
            else:
                flight, is_leader = node.cache.begin_window(key), True
            flight.node = node
            if not is_leader or node.state == JOINED:
                return flight, is_leader
            node.cache.finish_flight(flight)

    def wait_flight(self, flight: Flight) -> PageEntry | None:
        return flight.node.cache.wait_flight(flight)

    def finish_flight(self, flight: Flight) -> None:
        flight.node.cache.finish_flight(flight)

    #: A window closes exactly like a flight.
    end_window = finish_flight

    @property
    def open_flights(self) -> int:
        return sum(node.cache.open_flights for node in self.nodes())

    # -- write path --------------------------------------------------------------------

    def process_write_request(
        self,
        uri: str,
        writes: list[QueryInstance],
        extra_queries: tuple[int, int, int] = (0, 0, 0),
    ) -> set[str]:
        """Broadcast one write's invalidation information cluster-wide.

        Returns the **union** of page keys invalidated across all
        nodes -- a page for the same logical query can only live on its
        owning node, but callers (and the consistency argument) care
        about every casualty, not just the local shard's.

        ``extra_queries`` is the request's tally of extra queries
        (:attr:`RequestContext.extra_queries`: queries, rows examined,
        partner probes), recorded with the write.  The writes are
        deduplicated here, once per ring: the bus and every node take
        the message's writes as unique.  The whole write -- recording
        it, the publish and the containment closure -- is one
        router-lock section (router -> bus -> node cache is the lock
        order).
        """
        with self._lock:
            frontend = self.stats.frontend
            frontend.record_write(uri)
            frontend.record_extra_queries(*extra_queries)
            if not writes:
                return set()
            if not self._members:
                raise ClusterError("cannot process a write on an empty cluster")
            unique = dedupe_writes(writes)
            self.stats.writes_deduped += len(writes) - len(unique)
            _message, doomed = self.bus.publish("router", uri, unique)
            # Evictions a concurrent insert has not settled yet: their
            # containers' copies are beyond this write's reach, so the
            # write settles them before it responds.
            while self._evicted:
                self._doom_containers(self._evicted.pop())
            return self._doom_containers(doomed)

    def _doom_containers(self, doomed: set[str]) -> set[str]:
        """Containment closure over freshly doomed keys.

        The router's table holds every edge (page on node A built from a
        fragment on node B, or on A itself).  Routed through the holder's
        ``invalidate_key`` so the container is doomed and its open
        flights are marked stale exactly as for a direct invalidation.
        The caller holds the router lock, so no insert can register or
        check an edge halfway through.
        """
        if not self.fragments.touches(doomed):
            return doomed  # no doomed key embeds or is embedded
        extra = self.fragments.containing(doomed)
        for key in extra:
            holder = self._route(key)
            if holder is not None:
                holder.cache.invalidate_key(key)
        closed = doomed | extra
        for key in closed:
            self.fragments.forget(key)
        return closed

    def _holds(self, key: str) -> bool:
        """Is ``key`` resident on the node it routes to?"""
        holder = self._route(key)
        return holder is not None and key in holder.cache

    def invalidate_key(self, key: str) -> bool:
        """External single-key invalidation, routed to the key's holder."""
        holder = self._route(key)
        removed = holder is not None and holder.cache.invalidate_key(key)
        with self._lock:
            self._doom_containers({key})
        return removed

    # -- management --------------------------------------------------------------------

    def clear(self) -> None:
        """Empty every node, and the containment table with them: an
        edge outliving its entries would doom a later computation of
        the container for nothing."""
        with self._lock:
            for node in self._nodes.values():
                node.cache.clear()
            self.fragments = FragmentContainment()

    def __len__(self) -> int:
        return sum(len(node.cache) for node in self.nodes())

    def snapshot(self) -> dict:
        return self.stats.snapshot()

