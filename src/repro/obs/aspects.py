"""Observability as the second woven concern (the paper's thesis, reused).

Caching was injected into an unmodified application by weaving; these
two aspects inject *visibility* the same way, over the same join points
plus the cache infrastructure the first concern introduced:

- servlet handlers (``HttpServlet+.do_get``/``do_post``),
- the cache facade (``ClusterRouter`` lookup / insert / invalidate /
  single-flight wait),
- the DB-API driver (``execute_query`` / ``execute_update`` /
  ``commit`` / ``rollback``),
- the cluster invalidation bus (``publish`` on the front-end,
  ``CacheNode.apply`` -- delivery -- on every node).

**Precedence** makes the composition deterministic: tracing runs at
precedence -10 and metrics at -5, both below the caching aspects'
10/20, so on a shared join point the around-chain nests
``tracing(metrics(caching(...)))`` -- tracing brackets caching, and a
cache *hit* (caching advice bypassing ``proceed``) is still a timed,
traced event.

**Propagation**: the advice around ``InvalidationBus.publish`` injects
the current span context into the call (the bus carries it as opaque
ids on the message), and the advice around ``CacheNode.apply`` adopts
the message's context as its explicit parent -- so remote invalidation
work is stitched into the originating request's trace even where no
thread context is shared.

Both aspects honour a shared ``enabled`` flag whose disabled path is a
single attribute check before ``proceed`` -- the overhead measured by
``benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

import contextvars
import time

from repro.aop import Aspect, around
from repro.aop.joinpoint import JoinPoint
from repro.aop.weaver import notify_aspect_switch
from repro.cache.entry import PageEntry
from repro.obs.histogram import NO_REQUEST, MetricsHub
from repro.obs.trace import SpanContext
from repro.obs.tracer import Tracer

#: Servlet pointcuts: identical join points to the caching aspects
#: (Figures 9-11), including the top-level-handler-only cflow guard.
SERVLET_READ_POINTCUT = (
    "execution(HttpServlet+.do_get(..)) "
    "&& !cflowbelow(execution(HttpServlet+.do_*(..)))"
)
SERVLET_WRITE_POINTCUT = (
    "execution(HttpServlet+.do_post(..)) "
    "&& !cflowbelow(execution(HttpServlet+.do_*(..)))"
)
#: Cache-facade pointcuts (the router is the one facade).
CACHE_LOOKUP_POINTCUT = "execution(ClusterRouter.check(..))"
CACHE_INSERT_POINTCUT = "execution(ClusterRouter.insert(..))"
CACHE_INVALIDATE_POINTCUT = "execution(ClusterRouter.process_write_request(..))"
FLIGHT_WAIT_POINTCUT = "execution(ClusterRouter.wait_flight(..))"
#: Driver pointcuts (the caching aspects' Figure 12 join points).
SQL_QUERY_POINTCUT = "call(Statement.execute_query(..))"
SQL_UPDATE_POINTCUT = "call(Statement.execute_update(..))"
TXN_COMMIT_POINTCUT = "call(Connection.commit(..))"
TXN_ROLLBACK_POINTCUT = "call(Connection.rollback(..))"
#: Cluster pointcuts.
BUS_PUBLISH_POINTCUT = "execution(InvalidationBus.publish(..))"
BUS_DELIVER_POINTCUT = "execution(CacheNode.apply(..))"

#: The request type (URI) of the woven request currently executing.
#: Owned by the metrics aspect but read by any phase advice: SQL issued
#: inside /view_item must be charged to /view_item's histograms.
_REQUEST_TYPE: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "obs_request_type", default=None
)


def current_request_type() -> str:
    return _REQUEST_TYPE.get() or NO_REQUEST


def _servlet_request(joinpoint: JoinPoint):
    """The (request, response) pair of a servlet handler join point."""
    return joinpoint.args[0], joinpoint.args[1]


class SwitchableAspect(Aspect):
    """An aspect with a runtime ``enabled`` switch the weaver honours.

    Dispatchers cache which advice is enabled and recompute only when
    told the configuration moved, so the setter notifies the weaver;
    reads stay one attribute access on the (hot) enabled path.
    """

    _enabled: bool = True

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        notify_aspect_switch()


class TracingAspect(SwitchableAspect):
    """Weaves spans around every observed join point."""

    #: Below the caching aspects (10/20): tracing brackets caching.
    precedence = -10

    def __init__(self, tracer: Tracer, enabled: bool = True) -> None:
        self.tracer = tracer
        self.enabled = enabled

    # -- servlets ----------------------------------------------------------------------

    @around(SERVLET_READ_POINTCUT)
    def trace_read_handler(self, joinpoint: JoinPoint):
        return self._trace_servlet(joinpoint, "GET")

    @around(SERVLET_WRITE_POINTCUT)
    def trace_write_handler(self, joinpoint: JoinPoint):
        return self._trace_servlet(joinpoint, "POST")

    def _trace_servlet(self, joinpoint: JoinPoint, method: str):
        if not self.enabled:
            return joinpoint.proceed()
        request, response = _servlet_request(joinpoint)
        with self.tracer.span(
            f"servlet {method} {request.uri}",
            tags={"method": method, "uri": request.uri},
        ) as span:
            result = joinpoint.proceed()
            span.set_tag("status", response.status)
            if response.status >= 500:
                span.mark_error(f"status {response.status}")
            return result

    # -- cache facade ------------------------------------------------------------------

    @around(CACHE_LOOKUP_POINTCUT)
    def trace_cache_lookup(self, joinpoint: JoinPoint):
        if not self.enabled:
            return joinpoint.proceed()
        with self.tracer.span("cache.lookup") as span:
            found = joinpoint.proceed()
            # A miss returns a miss record (or None), never an entry.
            span.set_tag("outcome", "hit" if type(found) is PageEntry else "miss")
            return found

    @around(CACHE_INSERT_POINTCUT)
    def trace_cache_insert(self, joinpoint: JoinPoint):
        if not self.enabled:
            return joinpoint.proceed()
        with self.tracer.span("cache.insert"):
            return joinpoint.proceed()

    @around(CACHE_INVALIDATE_POINTCUT)
    def trace_cache_invalidate(self, joinpoint: JoinPoint):
        if not self.enabled:
            return joinpoint.proceed()
        with self.tracer.span("cache.invalidate") as span:
            doomed = joinpoint.proceed()
            try:
                span.set_tag("doomed", len(doomed))
            except TypeError:  # pragma: no cover - defensive
                pass
            return doomed

    @around(FLIGHT_WAIT_POINTCUT)
    def trace_flight_wait(self, joinpoint: JoinPoint):
        if not self.enabled:
            return joinpoint.proceed()
        with self.tracer.span("flight.wait") as span:
            entry = joinpoint.proceed()
            span.set_tag("outcome", "served" if entry is not None else "retry")
            return entry

    # -- DB-API driver -----------------------------------------------------------------

    @around(SQL_QUERY_POINTCUT)
    def trace_sql_query(self, joinpoint: JoinPoint):
        return self._trace_sql(joinpoint, "sql.query")

    @around(SQL_UPDATE_POINTCUT)
    def trace_sql_update(self, joinpoint: JoinPoint):
        return self._trace_sql(joinpoint, "sql.update")

    def _trace_sql(self, joinpoint: JoinPoint, name: str):
        if not self.enabled:
            return joinpoint.proceed()
        sql = joinpoint.args[0] if joinpoint.args else ""
        with self.tracer.span(name, tags={"sql": str(sql)[:120]}):
            return joinpoint.proceed()

    @around(TXN_COMMIT_POINTCUT)
    def trace_commit(self, joinpoint: JoinPoint):
        if not self.enabled:
            return joinpoint.proceed()
        with self.tracer.span("sql.commit"):
            return joinpoint.proceed()

    @around(TXN_ROLLBACK_POINTCUT)
    def trace_rollback(self, joinpoint: JoinPoint):
        if not self.enabled:
            return joinpoint.proceed()
        with self.tracer.span("sql.rollback"):
            return joinpoint.proceed()

    # -- invalidation bus --------------------------------------------------------------

    @around(BUS_PUBLISH_POINTCUT)
    def trace_bus_publish(self, joinpoint: JoinPoint):
        """Time the publish and stamp the current span's ids onto it.

        ``InvalidationBus.publish`` accepts an opaque ``trace`` pair it
        copies onto the :class:`~repro.cluster.bus.BusMessage`; the
        aspect fills it from the ambient context so the bus itself
        never imports the tracing model.
        """
        if not self.enabled:
            return joinpoint.proceed()
        uri = joinpoint.args[1] if len(joinpoint.args) > 1 else ""
        with self.tracer.span("bus.publish", tags={"uri": str(uri)}) as span:
            if "trace" not in joinpoint.kwargs and len(joinpoint.args) < 4:
                joinpoint.kwargs = {
                    **joinpoint.kwargs,
                    "trace": (span.trace_id, span.span_id),
                }
            result = joinpoint.proceed()
            try:
                _message, doomed = result
                span.set_tag("doomed", len(doomed))
            except (TypeError, ValueError):  # pragma: no cover - defensive
                pass
            return result

    @around(BUS_DELIVER_POINTCUT)
    def trace_bus_deliver(self, joinpoint: JoinPoint):
        """Adopt the message's trace context as the explicit parent.

        This is the cross-node stitch: the delivering node may share no
        thread (or process) with the publisher, so the parent comes
        from the message, never from ambient state.
        """
        if not self.enabled:
            return joinpoint.proceed()
        message = joinpoint.args[0] if joinpoint.args else None
        carried = getattr(message, "trace", None)
        parent = SpanContext(*carried) if carried else None
        node = getattr(joinpoint.target, "name", "?")
        with self.tracer.span(
            "bus.deliver",
            tags={"node": str(node), "seq": str(getattr(message, "seq", "?"))},
            parent=parent,
        ) as span:
            doomed = joinpoint.proceed()
            try:
                span.set_tag("doomed", len(doomed))
            except TypeError:  # pragma: no cover - defensive
                pass
            return doomed


class MetricsAspect(SwitchableAspect):
    """Feeds per-phase latency histograms from the same join points.

    Precedence -5 puts metrics *inside* tracing but *outside* caching:
    the servlet phase includes the cache check (a hit is a fast servlet
    phase, which is the point), and the tracing span brackets the
    metrics observation itself.
    """

    precedence = -5

    def __init__(
        self, hub: MetricsHub, enabled: bool = True, clock=time.perf_counter
    ) -> None:
        self.hub = hub
        self.enabled = enabled
        self.clock = clock

    def _observe(self, joinpoint: JoinPoint, phase: str):
        if not self.enabled:
            return joinpoint.proceed()
        start = self.clock()
        try:
            return joinpoint.proceed()
        finally:
            self.hub.observe(phase, current_request_type(), self.clock() - start)

    @around(SERVLET_READ_POINTCUT)
    def measure_read_handler(self, joinpoint: JoinPoint):
        return self._measure_servlet(joinpoint)

    @around(SERVLET_WRITE_POINTCUT)
    def measure_write_handler(self, joinpoint: JoinPoint):
        return self._measure_servlet(joinpoint)

    def _measure_servlet(self, joinpoint: JoinPoint):
        if not self.enabled:
            return joinpoint.proceed()
        request, _response = _servlet_request(joinpoint)
        token = _REQUEST_TYPE.set(request.uri)
        start = self.clock()
        try:
            return joinpoint.proceed()
        finally:
            elapsed = self.clock() - start
            _REQUEST_TYPE.reset(token)
            self.hub.observe("servlet", request.uri, elapsed)

    @around(CACHE_LOOKUP_POINTCUT)
    def measure_cache_lookup(self, joinpoint: JoinPoint):
        return self._observe(joinpoint, "cache.lookup")

    @around(CACHE_INSERT_POINTCUT)
    def measure_cache_insert(self, joinpoint: JoinPoint):
        return self._observe(joinpoint, "cache.insert")

    @around(CACHE_INVALIDATE_POINTCUT)
    def measure_cache_invalidate(self, joinpoint: JoinPoint):
        return self._observe(joinpoint, "cache.invalidate")

    @around(FLIGHT_WAIT_POINTCUT)
    def measure_flight_wait(self, joinpoint: JoinPoint):
        return self._observe(joinpoint, "flight.wait")

    @around(SQL_QUERY_POINTCUT)
    def measure_sql_query(self, joinpoint: JoinPoint):
        return self._observe(joinpoint, "sql.query")

    @around(SQL_UPDATE_POINTCUT)
    def measure_sql_update(self, joinpoint: JoinPoint):
        return self._observe(joinpoint, "sql.update")

    @around(TXN_COMMIT_POINTCUT)
    def measure_commit(self, joinpoint: JoinPoint):
        return self._observe(joinpoint, "sql.commit")

    @around(TXN_ROLLBACK_POINTCUT)
    def measure_rollback(self, joinpoint: JoinPoint):
        return self._observe(joinpoint, "sql.rollback")

    @around(BUS_PUBLISH_POINTCUT)
    def measure_bus_publish(self, joinpoint: JoinPoint):
        return self._observe(joinpoint, "bus.publish")

    @around(BUS_DELIVER_POINTCUT)
    def measure_bus_deliver(self, joinpoint: JoinPoint):
        return self._observe(joinpoint, "bus.deliver")
