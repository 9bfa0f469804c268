"""The weaving rules: caching as a crosscutting aspect (Figures 9-12).

Three aspects implement the paper's weaving rules verbatim:

- :class:`ReadServletAspect` -- ``around execution(HttpServlet+.do_get(..))``:
  cache check before the servlet body, bypassing it on a hit; cache
  insert (with collected dependency information) on a miss (Figure 10);
- :class:`WriteServletAspect` -- ``around execution(HttpServlet+.do_post(..))``:
  opens a write context and, after the servlet completes, uses the
  collected invalidation information to evict affected entries
  (Figure 11; the paper uses an ``after`` advice -- ours is ``around``
  only because the context must also be *opened*, which the paper
  renders as a separate before-join-point step in Figure 6);
- :class:`JdbcConsistencyAspect` -- advice on
  ``execution(Statement.execute_query(..))`` and ``..execute_update(..)``:
  collects dependency/invalidation information flowing through the
  JDBC-level interface (Figure 12), including the pre-image the
  AC-extraQuery policy tests ("extra query"), which it reads off the
  write's own result: the UPDATE/DELETE plan hands back the rows it
  matched as they were before it ran (an INSERT, the row it stored).
  A read of a table that has been written carries a row witness: the
  keys its result showed.  Under ``ROW_WITNESS`` an INSERT also probes
  the partner tables its new row can join, so the invalidator can spare
  the join reads none of those rows satisfies.

The application servlets contain no caching logic; weaving these aspects
over the servlet classes and the driver's ``Statement`` class produces
the cache-enabled system (Figure 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.aop import Aspect, around
from repro.aop.joinpoint import JoinPoint
from repro.cache.analysis import InvalidationPolicy
from repro.cache.computation import CachedComputation
from repro.cache.consistency import ConsistencyCollector
from repro.cache.entry import PageEntry, QueryInstance
from repro.cache.flight import Flight
from repro.sql.template import templateize
from repro.web.http import HttpRequest, HttpResponse

if TYPE_CHECKING:
    from repro.cluster.router import ClusterRouter

#: Pointcut capturing read-only request handlers (Figure 9/10).  The
#: ``!cflowbelow`` guard captures only the *top-level* handler when
#: servlets forward to one another (the paper's footnote 2: interleaved
#: doGet/doPost must not be captured twice).
READ_HANDLER_POINTCUT = (
    "execution(HttpServlet+.do_get(..)) "
    "&& !cflowbelow(execution(HttpServlet+.do_*(..)))"
)
#: Pointcut capturing write request handlers (Figure 11).
WRITE_HANDLER_POINTCUT = (
    "execution(HttpServlet+.do_post(..)) "
    "&& !cflowbelow(execution(HttpServlet+.do_*(..)))"
)
#: Pointcuts capturing the JDBC-level calls (Figure 12).
QUERY_POINTCUT = "call(Statement.execute_query(..))"
UPDATE_POINTCUT = "call(Statement.execute_update(..))"
#: Transaction boundary pointcuts: invalidation information collected
#: inside an explicit transaction is staged until the outcome is known
#: (commit promotes, rollback discards).
COMMIT_POINTCUT = "call(Connection.commit(..))"
ROLLBACK_POINTCUT = "call(Connection.rollback(..))"


class ReadServletAspect(CachedComputation):
    """Cache checks and inserts around read-only servlets (Figure 10).

    The page tier's adapter over the shared miss protocol
    (:mod:`repro.cache.computation`): concurrent misses on one key
    coalesce onto the first thread's flight, so a hot key executes its
    servlet (and SQL) once per invalidation instead of once per blocked
    client.  What is page-specific stays here: the cacheability rule,
    the status rule, and the guard reads of embedded fragments.
    """

    precedence = 10

    @around(READ_HANDLER_POINTCUT)
    def cache_check_and_insert(self, joinpoint: JoinPoint) -> None:
        request, response = _request_response(joinpoint)
        if not self.cache.is_cacheable(request):
            # Hidden-state page: execute normally, never cache.  A
            # write context records what the page writes (not what it
            # reads, which no entry needs); its writes must invalidate.
            self.cache.record_uncacheable(request)
            context = self.collector.begin("write", request.uri)
            try:
                joinpoint.proceed()
            finally:
                self.collector.end()
                if context.writes:
                    self.cache.process_write_request(
                        request.uri, context.writes, context.extra_queries
                    )
            return
        key = request.cache_key()

        def serve(entry: PageEntry) -> None:
            # Serve the cached document, bypassing the servlet.
            response.replace_body(entry.body)
            response.set_status(entry.status)

        def compute(window: Flight) -> None:
            context = self.collector.begin("read", key)
            try:
                joinpoint.proceed()
            finally:
                self.collector.end()
                if context.writes:
                    # The handler wrote after all; keep the cache
                    # consistent (an error page, an aborted read or a
                    # raise does not undo a write that completed) and
                    # treat the page as uncacheable for this round.
                    self.cache.process_write_request(
                        request.uri, context.writes, context.extra_queries
                    )
            if context.writes:
                return
            if context.aborted or response.status != 200:
                return  # aborted read query or error page: do not cache
            if context.has_hole:
                # A declared hole rendered into this body: it embeds
                # per-request state, so the whole page must never be
                # cached even if the URI was not marked uncacheable (the
                # hidden-state trap fragment declarations now close).
                # The fragments cached their own spans; only the
                # stitched whole is discarded.
                self.cache.record_hole_skip()
                return
            self.cache.insert(
                request,
                response.body,
                context.reads,
                response.status,
                window=window,
                fragments=context.fragment_keys,
                guard_reads=context.fragment_reads,
                expires_at=context.expires_at,
            )

        self.cached(
            key,
            request.uri,
            lambda: self.cache.check(request),
            serve,
            compute,
        )


class WriteServletAspect(Aspect):
    """Cache invalidations after write servlets (Figure 11)."""

    precedence = 10

    def __init__(
        self, cache: ClusterRouter, collector: ConsistencyCollector
    ) -> None:
        self.cache = cache
        self.collector = collector

    @around(WRITE_HANDLER_POINTCUT)
    def invalidate_after(self, joinpoint: JoinPoint) -> None:
        request, _response = _request_response(joinpoint)
        context = self.collector.begin("write", request.cache_key())
        try:
            joinpoint.proceed()
        finally:
            self.collector.end()
            # Failed write queries were never recorded; whatever
            # completed successfully must invalidate affected entries
            # even if the handler later raised.
            self.cache.process_write_request(
                request.uri, context.writes, context.extra_queries
            )


class JdbcConsistencyAspect(Aspect):
    """Collects consistency information at the JDBC interface (Figure 12).

    Also watches the transaction boundary (``Connection.commit`` /
    ``rollback``): a write executed inside an explicit transaction is
    staged on the collector and only becomes invalidation information
    when the transaction commits.  A rolled-back write never changed the
    database, so it must invalidate nothing -- recording it at execute
    time (the pre-fix behaviour) both over-invalidates and, worse,
    leaks uncommitted state into the consistency protocol.
    """

    precedence = 20

    def __init__(
        self, cache: ClusterRouter, collector: ConsistencyCollector
    ) -> None:
        self.cache = cache
        self.collector = collector

    @property
    def extra_queries(self) -> int:
        """Pre-images captured (AC-extraQuery's extra queries; each is
        now read off the write's own result, see :meth:`_image`).

        Kept for observability; the counter itself lives in
        :class:`~repro.cache.stats.CacheStats`: each request tallies its
        own on its context, and the facade records the tally with the
        write request under its lock, since an unsynchronized attribute
        on the shared aspect instance lost increments under the threaded
        container.
        """
        return self.cache.stats.extra_queries

    def _sync_catalog(self, joinpoint: JoinPoint) -> None:
        """Mirror the intercepted statement's database schemas.

        The woven driver is the consistency layer's only sight of the
        application's database; feeding its schemas to the analysis
        catalog is what turns ``SELECT *`` wildcards and ambiguous
        columns into exact lineage.  Cheap after the first call (one
        schema-epoch comparison inside ``sync_catalog``).
        """
        connection = getattr(joinpoint.target, "connection", None)
        if connection is not None:
            self.cache.sync_catalog(getattr(connection, "database", None))

    @around(QUERY_POINTCUT)
    def collect_dependency_info(self, joinpoint: JoinPoint) -> object:
        sql, params = _sql_and_params(joinpoint)
        self._sync_catalog(joinpoint)
        try:
            result = joinpoint.proceed()
        except Exception:
            # An aborted read query poisons the page (Section 4.2).
            self.collector.mark_aborted()
            raise
        context = self.collector.current()
        if context is not None and context.is_read:
            # A write request's own SELECTs are not dependencies: only a
            # read (or fragment) context records them.
            template, values = templateize(sql, params)
            witness = None
            if self.cache.written_tables:
                witness = self.cache.witness(template, result.query_result.rows)
            self.collector.record_read(QueryInstance(template, values, None, witness))
        return result

    @around(UPDATE_POINTCUT)
    def collect_invalidation_info(self, joinpoint: JoinPoint) -> object:
        sql, params = _sql_and_params(joinpoint)
        self._sync_catalog(joinpoint)
        template = None
        if self.collector.current() is not None:
            template, values = templateize(sql, params)
        # A failed write changed nothing (the plan undoes a part-applied
        # UPDATE) and is not considered for invalidation.
        result = joinpoint.proceed()
        if template is not None:
            self.cache.written_tables.add(template.info.write_table)
            statement = joinpoint.target
            image = self._image(statement)
            partners = None
            if (
                image is not None
                and template.info.kind == "insert"
                and self.cache.invalidation_policy is InvalidationPolicy.ROW_WITNESS
            ):
                partners = self._partners(statement, template, image)
            instance = QueryInstance(template, values, image, partners)
            connection = getattr(statement, "connection", None)
            if connection is not None and connection.in_transaction:
                # Outcome unknown until commit/rollback: stage it.
                self.collector.stage_write(connection, instance)
            else:
                self.collector.record_write(instance)
        return result

    @around(COMMIT_POINTCUT)
    def promote_staged_writes(self, joinpoint: JoinPoint) -> object:
        result = joinpoint.proceed()
        # Only after the database accepted the commit do the staged
        # writes become real invalidation information.
        self.collector.commit_staged(joinpoint.target)
        return result

    @around(ROLLBACK_POINTCUT)
    def discard_staged_writes(self, joinpoint: JoinPoint) -> object:
        try:
            return joinpoint.proceed()
        finally:
            # Rolled back (even if rollback itself raised, the writes
            # did not commit): they must not invalidate anything.
            self.collector.rollback_staged(joinpoint.target)

    def _image(self, statement: object) -> tuple[dict[str, object], ...] | None:
        """The rows the write's intersection test reads.

        For an UPDATE or DELETE, under the pre-image rungs: what the
        paper's extra query fetched, the rows it touched as they were
        before it ran, so missing column values can be tested at
        invalidation time.  The write's own plan took this before-image
        while it changed the rows, under the same database lock, so no
        second statement runs and no other writer can come between image
        and write; it is still counted as one extra query (plus the rows
        the write examined), which is what the simulator charges for it.

        For an INSERT, under every rung: the row as stored (generated
        key, coerced values, NULLs), which the plan returns as JDBC's
        ``getGeneratedKeys`` would -- no query, none counted."""
        update = getattr(statement, "last_update", None)
        if update is None:
            return None
        if update.before is None:
            return update.after_image()
        if not self.cache.invalidation_policy.pre_images:
            return None
        self.collector.record_extra_query(update.rows_examined)
        return update.before_image()

    def _partners(self, statement, template, image) -> tuple | None:
        """Run an INSERT's partner probes (:meth:`ClusterRouter.probe_plan`):
        for each plan edge and inserted row, ``SELECT * FROM <partner>
        WHERE <partner column> = <the row's join value>`` on the write's
        own connection, after the write, so a probe in a transaction
        sees the transaction's rows.  Each is a real query, counted by
        the database and as an extra query.  None when the plan is
        empty: the write reaches no join read that a probe could spare.
        """
        plan = self.cache.probe_plan(template)
        if not plan:
            return None
        database = statement.connection.database
        found: dict[tuple, tuple] = {}
        for column, table, partner_column in plan:
            sql = f"SELECT * FROM {table} WHERE {partner_column} = ?"
            for row in image:
                if column not in row:
                    continue
                value = row[column]
                probe = (table, partner_column, value)
                if probe in found:
                    continue
                result = database.query(sql, (value,))
                self.collector.record_extra_query(result.rows_examined, probe=True)
                found[probe] = tuple(
                    tuple(zip(result.columns, values)) for values in result.rows
                )
        return tuple((*probe, rows) for probe, rows in found.items())


def _request_response(joinpoint: JoinPoint) -> tuple[HttpRequest, HttpResponse]:
    """Extract the (request, response) arguments of a servlet handler."""
    args = joinpoint.args
    if len(args) < 2:  # pragma: no cover - defensive
        raise TypeError(
            f"{joinpoint.signature} does not look like a servlet handler"
        )
    return args[0], args[1]


def _sql_and_params(
    joinpoint: JoinPoint,
) -> tuple[str, tuple[object, ...] | list[object]]:
    """Extract (sql, params) from an execute_query/execute_update call
    (``templateize`` copies a parameter list into the value vector)."""
    args = joinpoint.args
    if len(args) > 1:
        return args[0], args[1]
    return args[0], joinpoint.kwargs.get("params", ())
