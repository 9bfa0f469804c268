"""The span/trace model: what one traced operation looks like.

A **span** is one timed operation (a servlet execution, a cache lookup,
a SQL statement, a bus delivery).  Spans carry a monotonic-clock
duration, a wall-clock start time for display, free-form string tags,
and an ``ok``/``error`` status.  Spans belonging to one logical request
share a **trace id** and are linked parent -> child through span ids,
so the whole request can be reassembled as a tree even when parts of it
executed on other cluster nodes.

Context propagation has two forms, mirroring real tracing systems:

- **ambient** -- a ``contextvars`` variable holds the currently active
  span context; a span started without an explicit parent adopts it.
  ``contextvars`` (rather than plain thread-locals) keeps the semantics
  aligned with the AOP framework's cflow stack, which uses the same
  mechanism.
- **explicit** -- a :class:`SpanContext` is a pair of ids that can be
  carried on any message (the invalidation bus stamps it on
  :class:`~repro.cluster.bus.BusMessage`) and re-activated on the far
  side, stitching remote work into the originating trace.

This module is dependency-free on purpose: the web layer and the
cluster layer may import it without pulling in the rest of ``repro.obs``.
"""

from __future__ import annotations

import contextvars
import time
import uuid
from dataclasses import dataclass, field


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 8-hex-digit span id."""
    return uuid.uuid4().hex[:8]


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: ``(trace_id, span_id)``.

    This is the unit of propagation -- everything else on a
    :class:`Span` stays on the node that recorded it.
    """

    trace_id: str
    span_id: str


OK = "ok"
ERROR = "error"


@dataclass
class Span:
    """One timed operation within a trace."""

    name: str
    context: SpanContext
    parent_id: str | None
    #: Wall-clock start (``time.time``), for human display only.
    started_at: float
    #: Monotonic start (``time.perf_counter``); durations come from this.
    start: float
    duration: float | None = None
    tags: dict[str, str] = field(default_factory=dict)
    status: str = OK
    error: str | None = None

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def set_tag(self, name: str, value: object) -> "Span":
        self.tags[name] = str(value)
        return self

    def mark_error(self, error: object) -> None:
        self.status = ERROR
        self.error = str(error)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ms = f"{self.duration * 1000:.3f}ms" if self.finished else "open"
        return f"<Span {self.name} {self.trace_id}/{self.span_id} {ms}>"


class NullSpan:
    """The span handed out when tracing is disabled: absorbs everything.

    Keeping the advice body identical in both modes (no ``if enabled``
    branches around every tag) makes the disabled-mode overhead exactly
    the cost of this object's no-op methods.
    """

    __slots__ = ()

    name = ""
    parent_id = None
    status = OK
    error = None
    duration = None
    tags: dict[str, str] = {}

    def set_tag(self, name: str, value: object) -> "NullSpan":
        return self

    def mark_error(self, error: object) -> None:
        pass


NULL_SPAN = NullSpan()


#: The ambient span context for the current execution context.
_CURRENT: contextvars.ContextVar[SpanContext | None] = contextvars.ContextVar(
    "obs_current_span", default=None
)


def current_context() -> SpanContext | None:
    """The active span context, if any."""
    return _CURRENT.get()


def activate(context: SpanContext | None) -> contextvars.Token:
    """Make ``context`` ambient; returns the token for :func:`deactivate`."""
    return _CURRENT.set(context)


def deactivate(token: contextvars.Token) -> None:
    """Restore the ambient context captured by :func:`activate`."""
    _CURRENT.reset(token)


def open_root() -> tuple[SpanContext, contextvars.Token]:
    """Open a fresh root context (no recorded span) and activate it.

    The WSGI adapter uses this as a per-request correlation id: every
    span woven below adopts the root's trace id, and the access log can
    print it even when no observability aspects are installed at all.
    """
    context = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
    return context, activate(context)


def make_span(
    name: str,
    parent: SpanContext | None,
    tags: dict[str, str] | None = None,
    clock=time.perf_counter,
    wall=time.time,
) -> Span:
    """Construct (but do not activate or record) a span.

    With ``parent`` the span joins that trace; without it a new trace
    begins.  Recording and activation are the
    :class:`~repro.obs.tracer.Tracer`'s job.
    """
    if parent is not None:
        context = SpanContext(trace_id=parent.trace_id, span_id=new_span_id())
        parent_id: str | None = parent.span_id
    else:
        context = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        parent_id = None
    return Span(
        name=name,
        context=context,
        parent_id=parent_id,
        started_at=wall(),
        start=clock(),
        tags=dict(tags) if tags else {},
    )
