"""Outside-in layer trace: timing wrappers installed from ``bench/`` only.

The traced child wraps the public calls *into* each ``src/repro`` layer.
Every wrapper records one span ``(id, parent, request, name, start_ns,
end_ns)`` on a thread-local stack, in memory; the child dumps them as
JSON lines when it stops.  Span names are ``<layer>.<operation>`` with
``<layer>`` a ``src/repro`` package name -- spans that later move
*inside* ``src/`` must keep these names.

Install order decides what lands in whose self time.  The raw servlet
handlers and driver calls are wrapped **before** ``awc.install()`` and
the same join points again **after** it, so the weaver's dispatcher,
the advice bodies and the collector sit between the two wrappers: in
the self time of ``aop.*``.

A slow-path request produces two trees that share a request id: the
loop-thread part (``web.request``: parse, probe, hand-off) and the
executor part (``web.offload`` = ``web.executor_wait`` + ``web.render``
and everything below it).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

now_ns = time.perf_counter_ns


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.request = 0


class Recorder:
    """In-memory span store for one child process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.state = _ThreadState()
        self.ids = itertools.count(1)
        self.requests = itertools.count(1)
        #: Distinct template texts ``templateize`` produced.
        self.templates: set[str] = set()

    def wrap(self, name: str, function, *, root: bool = False, on_result=None):
        """``function`` timed as a span called ``name``.

        A ``root`` span that starts on an empty stack opens a new
        request id.  ``on_result`` sees the return value.
        """
        spans, state, ids, requests = self.spans, self.state, self.ids, self.requests

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            stack = state.stack
            if stack:
                parent = stack[-1]
            else:
                parent = 0
                if root:
                    state.request = next(requests)
            span = next(ids)
            stack.append(span)
            start = now_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = now_ns()
                stack.pop()
                spans.append((span, parent, state.request, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_attr(self, owner, attr: str, name: str, **kwargs) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    def wrap_submit(self, executor) -> None:
        """Timestamp ``executor.submit``: the submit -> start wait becomes
        ``web.executor_wait`` and the request id crosses the thread hop."""
        submit = executor.submit
        spans, state, ids = self.spans, self.state, self.ids

        def traced_submit(function, *args, **kwargs):
            if not self.enabled:
                return submit(function, *args, **kwargs)
            request = state.request
            submitted = now_ns()

            def run(*run_args, **run_kwargs):
                offload, wait = next(ids), next(ids)
                started = now_ns()
                spans.append((wait, offload, request, "web.executor_wait", submitted, started))
                state.request = request
                state.stack.append(offload)
                try:
                    return function(*run_args, **run_kwargs)
                finally:
                    state.stack.pop()
                    spans.append((offload, 0, request, "web.offload", submitted, now_ns()))

            return submit(run, *args, **kwargs)

        executor.submit = traced_submit

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


#: Facade methods wrapped on ``Cache`` (as ``cache.<m>``) and on
#: ``ClusterRouter`` (as ``cluster.<m>``).
FACADE_METHODS = (
    "is_cacheable",
    "fast_check",
    "check",
    "check_key",
    "insert",
    "insert_key",
    "join_flight",
    "wait_flight",
    "finish_flight",
    "begin_window",
    "end_window",
    "process_write_request",
    "apply_writes",
    "record_uncacheable",
    "sync_catalog",
)

HANDLERS = ("do_get", "do_post")
DRIVER_CALLS = {"execute_query": "db.query", "execute_update": "db.update"}
COMPOSER_CALLS = ("fragment", "hole")


def _wrap_handlers(recorder: Recorder, servlet_classes, name: str) -> None:
    for cls in servlet_classes:
        for handler in HANDLERS:
            if handler in vars(cls):
                recorder.wrap_attr(cls, handler, name)


def install_raw(recorder: Recorder, servlet_classes) -> None:
    """Innermost wrappers; call before ``awc.install()``."""
    from repro.apps.html import PageComposer
    from repro.db.dbapi import Statement

    _wrap_handlers(recorder, servlet_classes, "apps.servlet")
    for method, name in DRIVER_CALLS.items():
        recorder.wrap_attr(Statement, method, name)
    for method in COMPOSER_CALLS:
        recorder.wrap_attr(PageComposer, method, f"apps.{method}")


def install_woven(recorder: Recorder, servlet_classes) -> None:
    """Everything else; call after ``awc.install()``."""
    import repro.cache.aspects as aspects
    import repro.db.engine as engine
    import repro.sql.template as template
    import repro.web.asyncserver as asyncserver
    from repro.apps.html import PageComposer
    from repro.cache.api import Cache
    from repro.cluster.bus import InvalidationBus
    from repro.cluster.router import ClusterRouter
    from repro.db.dbapi import Statement

    _wrap_handlers(recorder, servlet_classes, "aop.servlet")
    for method in DRIVER_CALLS:
        recorder.wrap_attr(Statement, method, "aop.jdbc")
    for method in COMPOSER_CALLS:
        recorder.wrap_attr(PageComposer, method, "aop.fragment")
    for method in FACADE_METHODS:
        recorder.wrap_attr(Cache, method, f"cache.{method}")
        if hasattr(ClusterRouter, method):  # the router has no apply_writes
            recorder.wrap_attr(ClusterRouter, method, f"cluster.{method}")
    recorder.wrap_attr(InvalidationBus, "publish", "cluster.bus_publish")
    # ``templateize`` is imported by name into the aspects module, and
    # ``parse_statement`` into the template and engine modules.
    recorder.wrap_attr(
        aspects,
        "templateize",
        "sql.templateize",
        on_result=lambda result: recorder.templates.add(result[0].text),
    )
    recorder.wrap_attr(template, "parse_statement", "sql.parse")
    recorder.wrap_attr(engine, "parse_statement", "sql.parse")
    recorder.wrap_attr(engine.Database, "execute_statement", "db.execute")
    recorder.wrap_attr(asyncserver, "build_wire", "web.build_wire")
    recorder.wrap_attr(asyncserver.AsyncCachedServer, "render", "web.render")
    recorder.wrap_attr(
        asyncserver._HttpConnection, "data_received", "web.request", root=True
    )
