"""Per-request consistency information collection (Figures 5 and 6).

While a read request executes, every SQL query it issues is recorded as
*dependency information*; while a write request executes, every update
is recorded as *invalidation information*.  The JDBC-level aspect feeds
this module; the servlet-level aspects open/close the contexts.

Aborted queries follow the paper's rules: a failed read query marks the
context aborted so the page is not inserted; a failed write query is
simply not recorded for invalidation.

Writes executed inside an explicit transaction are *staged* per
connection rather than recorded immediately (mirroring the deferred
trigger events in :mod:`repro.db.transactions`): ``commit`` promotes
them into the context's invalidation information, ``rollback`` discards
them -- a rolled-back write never happened, so it must invalidate
nothing.  A rollback observed while a *read* context has staged writes
additionally aborts the context: the page body may have been rendered
from uncommitted state.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field
from typing import Callable

from repro.cache.entry import QueryInstance
from repro.errors import ConsistencyError


@dataclass(init=False)
class RequestContext:
    """Consistency bookkeeping for one in-flight request.

    One is opened per request and per fragment render, always by the
    collector and always empty, so ``__init__`` takes just what the
    collector knows; equality and repr are the dataclass's.
    """

    kind: str  # "read" | "write" | "fragment"
    reads: list[QueryInstance] = field(default_factory=list)
    writes: list[QueryInstance] = field(default_factory=list)
    #: Writes executed inside a still-open transaction, keyed by the
    #: connection that owns it; promoted to ``writes`` on commit,
    #: dropped on rollback.
    staged_writes: dict[object, list[QueryInstance]] = field(
        default_factory=dict
    )
    aborted: bool = False
    #: Enclosing context when this is a fragment context (fragments may
    #: nest); None at page level.
    parent: "RequestContext | None" = None
    #: True once a hole rendered inside this context: the corresponding
    #: entry contains per-request state and must not be cached whole.
    has_hole: bool = False
    #: Earliest expiry among the cached entries whose text this body
    #: embeds (None: none expires); the entry's insert caps its own
    #: expiry at it (:meth:`cap_expiry`).
    expires_at: float | None = None
    #: Cache keys of the fragments *stored* while this context was
    #: rendering (containment edges for the entry's eventual insert).
    fragment_keys: list[str] = field(default_factory=list)
    #: Dependencies of embedded fragments: not part of this entry's own
    #: dependency registrations (the fragment entries carry them), but
    #: required for the insert-time staleness check -- a write that
    #: doomed an embedded fragment mid-render doomed this body too.
    fragment_reads: list[QueryInstance] = field(default_factory=list)
    #: The extra queries this context's writes ran: ``(queries, rows
    #: examined, partner probes)``.  Recorded with the write request
    #: (:meth:`ClusterRouter.process_write_request`), in the section
    #: that records the write, not under a lock round per query.
    extra_queries: tuple[int, int, int] = (0, 0, 0)
    #: Whether the JDBC aspect has mirrored the database's schemas into
    #: the analysis catalog for this request (its guard runs once per
    #: request, not per statement; a fragment inherits its parent's).
    catalog_synced: bool = False

    def __init__(self, kind: str, parent: "RequestContext | None" = None) -> None:
        self.kind = kind
        #: Whether reads are recorded ("read" and "fragment" contexts):
        #: an attribute, not a property, as every intercepted query and
        #: every fragment hit asks it.
        self.is_read = kind != "write"
        self.reads = []
        self.writes = []
        self.staged_writes = {}
        self.parent = parent
        self.fragment_keys = []
        self.fragment_reads = []
        self.catalog_synced = parent is not None and parent.catalog_synced

    def add_extra_queries(self, queries: int, rows: int, probes: int) -> None:
        done, examined, probed = self.extra_queries
        self.extra_queries = (done + queries, examined + rows, probed + probes)

    def cap_expiry(self, expires_at: float | None) -> None:
        """This body embeds text that expires at ``expires_at``.

        Propagates through every enclosing context, as a hole does: a
        body embedding this one embeds the same text, so none of them
        may be served past that instant.
        """
        if expires_at is None:
            return
        context = self
        while context is not None:
            if context.expires_at is None or expires_at < context.expires_at:
                context.expires_at = expires_at
            context = context.parent


class ConsistencyCollector:
    """Owns the current request context (contextvar-based, so concurrent
    request handling in threads or tasks cannot cross-contaminate)."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar[RequestContext | None] = (
            contextvars.ContextVar("autowebcache_context", default=None)
        )
        #: The open context, or None: the context variable's own getter,
        #: so the per-statement read costs no Python call.
        self.current: Callable[[], RequestContext | None] = self._current.get

    def begin(self, kind: str) -> RequestContext:
        """Open a context for a request; nesting is rejected."""
        if self._current.get() is not None:
            raise ConsistencyError("a request context is already open")
        context = RequestContext(kind)
        self._current.set(context)
        return context

    def end(self) -> RequestContext:
        """Close and return the current context.

        Writes still staged under an open transaction are promoted
        conservatively: a handler that returns without committing may
        hold a connection whose autocommit semantics land the writes
        later, and over-invalidating is safe while under-invalidating
        is not.
        """
        context = self._current.get()
        if context is None:
            raise ConsistencyError("no open request context")
        if context.staged_writes:
            for staged in context.staged_writes.values():
                context.writes.extend(staged)
            context.staged_writes.clear()
        self._current.set(None)
        return context

    # -- fragment contexts (nested) ------------------------------------------

    def begin_fragment(self) -> RequestContext:
        """Open a *nested* context for one fragment render.

        Unlike :meth:`begin`, an enclosing context is allowed (and
        usual): the fragment's reads must be collected separately from
        the page's so they register against the fragment entry.  A
        fragment on an *uncacheable* page is enclosed by that page's
        write context; one rendered outside every woven handler has no
        enclosing context and simply becomes the root.
        """
        context = RequestContext("fragment", parent=self._current.get())
        self._current.set(context)
        return context

    def end_fragment(self) -> RequestContext:
        """Close the innermost fragment context and restore its parent.

        Staged writes are promoted conservatively, as in :meth:`end`.
        The closed context is returned *unmerged*: the fragment aspect
        decides how its reads/writes/containment flow into the parent
        (stored fragments contribute containment edges and guard reads;
        unstored ones contribute their full dependency set).
        """
        context = self._current.get()
        if context is None or context.kind != "fragment":
            raise ConsistencyError("no open fragment context")
        if context.staged_writes:
            for staged in context.staged_writes.values():
                context.writes.extend(staged)
            context.staged_writes.clear()
        self._current.set(context.parent)
        return context

    def mark_hole(self) -> None:
        """Record that a hole rendered inside the current context.

        Propagates through every enclosing context: a page (or outer
        fragment) containing a hole anywhere in its span embeds
        per-request state and must not be cached whole.
        """
        context = self._current.get()
        while context is not None:
            context.has_hole = True
            context = context.parent

    def record_read(self, instance: QueryInstance) -> None:
        """Record dependency information for the current read request.

        Queries issued outside any context (population scripts, the
        cache's own extra queries) are intentionally ignored.
        """
        context = self._current.get()
        if context is not None and context.is_read:
            context.reads.append(instance)

    def record_write(self, instance: QueryInstance) -> None:
        """Record invalidation information for the current request.

        Writes are recorded for *any* open context: the paper's write
        requests may also render a page, and a read-classified handler
        that unexpectedly writes must still trigger invalidations for
        consistency to hold.
        """
        context = self._current.get()
        if context is not None:
            context.writes.append(instance)

    def commit_staged(self, connection: object) -> None:
        """Promote ``connection``'s staged writes: the transaction committed."""
        context = self._current.get()
        if context is None:
            return
        staged = context.staged_writes.pop(connection, None)
        if staged:
            context.writes.extend(staged)

    def rollback_staged(self, connection: object) -> None:
        """Discard ``connection``'s staged writes: they never happened.

        In a read context a rollback after staged writes also aborts the
        page: its body may reflect the uncommitted (now undone) state.
        """
        context = self._current.get()
        if context is None:
            return
        staged = context.staged_writes.pop(connection, None)
        if staged and context.is_read:
            context.aborted = True

    def mark_aborted(self) -> None:
        context = self._current.get()
        if context is not None:
            context.aborted = True
