"""The asyncio serving tier: an event-loop front end for the cache.

The threaded server (``repro.web.wsgi``) reproduces the paper's
deployment shape -- a thread per connection, every request paying
thread scheduling and lock handoff even when the answer is a cached
page.  ROADMAP's hot-path item observes that at that point throughput
is bounded by the serving tier, not the cache.  This module is the
refactor that fixes it without touching the servlet/WSGI API:

* **Event-loop front end.** One ``asyncio`` loop (on a background
  thread) owns every connection.  HTTP/1.1 with keep-alive, so a load
  generator can pump thousands of requests down one socket without
  per-request connect cost.

* **Precomputed hit path.** A cacheable GET with no cookies probes the
  cache *on the loop thread* via :meth:`ClusterRouter.fast_check` (hit-or-
  nothing; misses record no statistics and leave the miss taxonomy
  untouched for the woven check that follows).  On a hit the entry's
  pinned wire buffer -- status line + headers + body, rendered once by
  :func:`_serialize` -- is written straight to the transport: no
  renderer, no thread handoff, no string encode.  Invalidation dooms
  the buffer along with the entry (:meth:`PageEntry.doom`), so a
  doomed page can never be replayed from the buffer.

* **A hit is one dict probe.** The page's key is already in the
  request line (the paper indexes pages by URI plus arguments), so the
  server remembers, per raw request head (request line + header block),
  the probe the general parser derived from it: ``(cache key, uri,
  close-after-reply)``.  Only heads the parser accepted as a body-less,
  cookie-less GET are remembered, in a bounded memo that is emptied
  when full.  A keep-alive client repeating a head is then answered by
  ``find`` + one dict lookup + ``fast_check`` + the pinned buffer: no
  header dict, no :class:`HttpRequest`, no query-string round trip.
  The memo holds a pure function of the head bytes, so it answers
  exactly what the parser would; every framing refusal and the header
  size cap are decided before it is consulted, and a remembered probe
  that misses goes through the general parser (without probing again).

* **Run to completion.** Everything else (misses, writes, sessions,
  cookies, uncacheable URIs) runs the exact same container pipeline the
  threaded server runs -- woven aspects, single-flight coalescing,
  consistency machinery -- *inline on the loop thread*, and its answer
  is written before the next request is parsed.  Nothing in this
  repository blocks (the database is in-process) and every thread
  shares one GIL, so a worker pool bought neither parallelism nor
  hit-latency isolation, only a thread hand-off per miss
  (``docs/serving.md`` has the measurements).  An application that
  really blocks belongs on the threaded ``repro.web.wsgi`` tier.

The wire format is shared with the WSGI adapter's serialization rules
(same status phrases, same header order, Content-Length always last),
so a page served from the buffer is byte-identical to the same page
rendered fresh through the async slow path.
"""

from __future__ import annotations

import asyncio
import sys
import threading

from repro.errors import RoutingError
from repro.web.container import ServletContainer
from repro.web.http import (
    HttpRequest,
    HttpResponse,
    parse_query_string,
    status_line,
)

#: Headers every cached (fast-path) page serves -- the PR-6 assembly
#: hygiene invariant: per-request headers are never cached, hits always
#: carry the response defaults.
_HIT_HEADERS = (("Content-Type", "text/html"),)

#: Largest header block / declared body a connection may make the
#: server buffer; anything above is answered 400 and closed.
_MAX_HEAD_BYTES = 65536
_MAX_BODY_BYTES = 1 << 20

#: Most request heads :attr:`AsyncCachedServer.head_memo` holds; a full
#: memo is emptied, as the statement-plan cache is.
_HEAD_MEMO_LIMIT = 4096


def _serialize(
    status: int,
    headers: tuple[tuple[str, str], ...],
    cookies: tuple[tuple[str, str], ...],
    body: bytes,
) -> bytes:
    """One response in wire format (header order mirrors WsgiAdapter)."""
    lines = [f"HTTP/1.1 {status_line(status)}"]
    for name, value in headers:
        lines.append(f"{name}: {value}")
    for name, value in cookies:
        lines.append(f"Set-Cookie: {name}={value}; Path=/")
    lines.append(f"Content-Length: {len(body)}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def serialize_response(response: HttpResponse) -> bytes:
    """Wire bytes for a completed container response."""
    return _serialize(
        response.status,
        tuple(response.headers.items()),
        tuple(response.cookies.items()),
        response.body.encode("utf-8"),
    )


def build_wire(entry) -> bytes:
    """Wire bytes for a cached page entry (the fast-path buffer).

    Byte-identical to :func:`serialize_response` over the response a
    woven hit produces: default headers, no cookies, the cached body.
    """
    return _serialize(
        entry.status, _HIT_HEADERS, (), entry.body.encode("utf-8")
    )


def _error_page(status: int, detail: str = "") -> bytes:
    """A well-formed error response (never a traceback, never dropped)."""
    paragraph = f"<p>{detail}</p>" if detail else ""
    page = f"<html><body><h1>{status}</h1>{paragraph}</body></html>"
    return _serialize(status, _HIT_HEADERS, (), page.encode("utf-8"))


class _Completed:
    """What :meth:`_InlineExecutor.submit` returns: the outcome of a
    call that already ran, with a future's ``result()``."""

    __slots__ = ("_value", "_error")

    def __init__(self, value=None, error: Exception | None = None) -> None:
        self._value = value
        self._error = error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class _InlineExecutor:
    """``submit`` runs the callable on the calling thread.

    No thread is involved; this is only the seam the benchmark's trace
    patches (``bench/tracing.py`` wraps ``server.executor.submit`` to
    emit ``web.offload``).  ROADMAP item 14 moves those probes inside
    ``src/`` and deletes this class.
    """

    def submit(self, fn, /, *args, **kwargs) -> _Completed:
        try:
            return _Completed(fn(*args, **kwargs))
        except Exception as exc:
            return _Completed(error=exc)


class AsyncServerStats:
    """Serving-tier counters, all mutated on the loop thread only."""

    def __init__(self) -> None:
        #: Responses served from a pinned wire buffer on the loop.
        self.fast_hits = 0
        #: Requests that ran the container pipeline, inline on the loop
        #: (misses, writes, uncacheable URIs, cookie-carrying requests).
        self.slow_requests = 0
        #: Connections accepted over the server's lifetime.
        self.connections = 0
        #: Malformed requests answered with a 400.
        self.bad_requests = 0

    def snapshot(self) -> dict:
        return {
            "fast_hits": self.fast_hits,
            "slow_requests": self.slow_requests,
            "connections": self.connections,
            "bad_requests": self.bad_requests,
        }


class _HttpConnection(asyncio.Protocol):
    """One keep-alive HTTP/1.1 connection on the event loop.

    Run to completion: a request is parsed, answered and written before
    the next one is looked at, so pipelined requests are answered
    strictly in order without any per-connection state but the buffer.
    """

    def __init__(self, server: "AsyncCachedServer") -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self._buffer = b""

    # -- asyncio.Protocol ---------------------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.server.stats.connections += 1
        self.server.open_transports.add(transport)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server.open_transports.discard(self.transport)
        self.transport = None

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._pump()

    # -- request framing ----------------------------------------------------------------

    def _pump(self) -> None:
        """Parse and answer requests until the buffer runs dry or the
        connection is closing (an answer that closes it is the last).

        A head found in the server's memo is answered from the probe
        remembered for it when that probe hits; anything else, and a
        remembered probe that misses, goes through the general parser.
        """
        server = self.server
        while self._buffer and not self.transport.is_closing():
            # Empty lines a client sent ahead of a request line (after
            # the previous request's body, typically) are not a request.
            if self._buffer.startswith(b"\r\n"):
                start = 2
                while self._buffer.startswith(b"\r\n", start):
                    start += 2
                self._buffer = self._buffer[start:]
            head_end = self._buffer.find(b"\r\n\r\n", 0, _MAX_HEAD_BYTES + 4)
            if head_end < 0:
                if len(self._buffer) > _MAX_HEAD_BYTES:
                    self._bad_request("header block too large")
                return
            head = self._buffer[:head_end]
            probe = server.head_memo.get(head)
            if probe is not None:
                key, uri, close = probe
                wire = self._fast_hit(key, uri)
                if wire is not None:
                    self._buffer = self._buffer[head_end + 4 :]
                    self.transport.write(wire)
                    if close:
                        self.transport.close()
                    continue
            request_line, _, header_block = head.decode("latin-1").partition("\r\n")
            parts = request_line.split(" ")
            if len(parts) != 3:
                self._bad_request("malformed request line")
                return
            method, target, version = parts
            headers: dict[str, str] = {}
            for line in header_block.split("\r\n"):
                if not line:
                    continue
                name, _, value = line.partition(":")
                name, value = name.strip().lower(), value.strip()
                if name == "content-length" and headers.get(name, value) != value:
                    # Two lengths: whichever one is believed, the other
                    # reading of the stream smuggles a request.
                    self._bad_request("conflicting content-length")
                    return
                headers[name] = value
            if "transfer-encoding" in headers:
                # Not implemented, and must not be ignored: a chunked
                # body would be parsed as the next pipelined request.
                self._bad_request("transfer-encoding is not supported")
                return
            # Digits only: int() would also take "-5" (the request is
            # served and the tail of its own header block re-parsed as
            # a second request), "+5", "5_0" and padded forms.
            declared = headers.get("content-length", "0")
            if not (declared.isascii() and declared.isdigit()):
                self._bad_request("malformed content-length")
                return
            length = int(declared)
            if length > _MAX_BODY_BYTES:
                self._bad_request("body too large")
                return
            body_start = head_end + 4
            if len(self._buffer) < body_start + length:
                return  # body not fully buffered yet
            body = self._buffer[body_start : body_start + length]
            self._buffer = self._buffer[body_start + length :]
            connection = headers.get("connection", "").lower()
            close = connection == "close" or (
                version == "HTTP/1.0" and connection != "keep-alive"
            )
            request = HttpRequest(method.upper(), target)
            wire = None
            if probe is not None:
                # Remembered, probed above and missed: keep its key.
                request.seed_cache_key(probe[0])
            elif (
                request.method == "GET"
                and server.fast_path_enabled
                and "cookie" not in headers
            ):
                key = request.cache_key()
                if not body:  # a pure function of the head: remember it
                    memo = server.head_memo
                    if len(memo) >= _HEAD_MEMO_LIMIT:
                        memo.clear()
                    # Many heads share a path: they share its string.
                    memo[head] = (key, sys.intern(request.uri), close)
                wire = self._fast_hit(key, request.uri)
            if wire is None:
                server.stats.slow_requests += 1
                wire = server.executor.submit(
                    server.render, request, headers, body
                ).result()
            self.transport.write(wire)
            if close:
                self.transport.close()

    def _bad_request(self, reason: str) -> None:
        self.server.stats.bad_requests += 1
        self.transport.write(_error_page(400, reason))
        self.transport.close()

    # -- dispatch -----------------------------------------------------------------------

    def _fast_hit(self, key: str, uri: str) -> bytes | None:
        """The pinned wire buffer of a cached page, counted as a fast
        hit; ``None`` on a miss or a page doomed between probe and pin."""
        server = self.server
        entry = server.cache.fast_check(key, uri)
        if entry is None:
            return None
        wire = entry.wire(build_wire)
        if wire is not None:
            server.stats.fast_hits += 1
        return wire


class AsyncCachedServer:
    """The event-loop serving tier around one container (+ cache).

    ``cache`` is anything with the facade's ``fast_check`` -- the
    installed facade (``awc.cache``, a
    :class:`~repro.cluster.router.ClusterRouter`), or one node's
    :class:`~repro.cache.api.Cache`; ``None``
    disables the fast path entirely (every request renders, which is
    still a working HTTP server).  The fast path is also disabled when
    the container has sessions enabled: session resolution and
    Set-Cookie stamping live on the container pipeline, which the fast
    path skips by construction.

    The fast path probes ``cache.fast_check(key, uri)``.  The key and
    URI of a body-less, cookie-less GET are remembered in
    :attr:`head_memo` under the request's raw head bytes (with whether
    the connection closes after the reply), so a repeated head skips
    the header parse, the :class:`HttpRequest` and the key encoding.
    The memo is shared by every connection, holds at most
    ``_HEAD_MEMO_LIMIT`` heads and is emptied when full.

    Start/stop lifecycle::

        with start_async_server(container, cache=awc.cache) as server:
            ...  # http://127.0.0.1:{server.port}/

    ``shutdown()`` is idempotent: closes the listening socket and the
    connections clients left open, stops the loop and joins its thread.
    """

    def __init__(
        self,
        container: ServletContainer,
        cache=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.container = container
        self.cache = cache
        self.host = host
        self._requested_port = port
        self.stats = AsyncServerStats()
        #: Transports of the live connections (loop thread only).
        self.open_transports: set[asyncio.BaseTransport] = set()
        self.fast_path_enabled = cache is not None and container.sessions is None
        #: Raw request head -> ``(cache key, uri, close)`` (loop thread only).
        self.head_memo: dict[bytes, tuple[str, str, bool]] = {}
        self.executor = _InlineExecutor()
        self.loop = asyncio.new_event_loop()
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    def start(self) -> "AsyncCachedServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.loop.run_forever,
            name="repro-async-server",
            daemon=True,
        )
        self._thread.start()
        self._server = asyncio.run_coroutine_threadsafe(
            self.loop.create_server(
                lambda: _HttpConnection(self),
                self.host,
                self._requested_port,
                backlog=128,
            ),
            self.loop,
        ).result(timeout=10.0)
        return self

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            asyncio.run_coroutine_threadsafe(self._close(), self.loop).result()
        if self._thread is not None:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=10.0)
        self.loop.close()

    async def _close(self) -> None:
        """Stop serving, from the loop thread.

        asyncio objects are not thread-safe: ``Server.close()`` called
        from the thread that asked for the shutdown raced connection
        teardown on the loop (both ran ``Server._wakeup``).  Requests
        run to completion on this thread, so none is in flight here;
        the connections clients left open are closed, because
        ``wait_closed()`` waits for every connection to be gone, and
        that wait is bounded: a peer that never reads must not hold the
        shutdown up.
        """
        self._server.close()
        for transport in list(self.open_transports):
            transport.close()
        await asyncio.wait_for(self._server.wait_closed(), timeout=10.0)

    def __enter__(self) -> "AsyncCachedServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- slow path (loop thread) --------------------------------------------------------

    def render(
        self, request: HttpRequest, headers: dict[str, str], body: bytes
    ) -> bytes:
        """Run the full container pipeline for one parsed request.

        ``request`` is the one the fast path probed with (its query
        string parsed once, its cache key encoded at most once and
        seeded from the head memo when remembered).  Mirrors the
        WSGI adapter's error envelope: unroutable URIs get a 404, any
        other failure a well-formed 500 -- the connection never sees a
        traceback or a dropped response.
        """
        try:
            self._build_request(request, headers, body)
        except UnicodeDecodeError:
            self.stats.bad_requests += 1
            return _error_page(400, "undecodable form body")
        try:
            return serialize_response(self.container.handle(request))
        except RoutingError:
            return _error_page(404)
        except Exception as exc:
            return _error_page(500, type(exc).__name__)

    def _build_request(
        self, request: HttpRequest, headers: dict[str, str], body: bytes
    ) -> None:
        """Add what only the slow path reads: form parameters, cookies
        and headers."""
        if request.method == "POST" and body:
            if "application/x-www-form-urlencoded" in headers.get(
                "content-type", ""
            ):
                request.params.update(
                    parse_query_string(body.decode("utf-8"))
                )
        cookie_header = headers.get("cookie", "")
        if cookie_header:
            for part in cookie_header.split(";"):
                name, _, value = part.strip().partition("=")
                if name:
                    request.cookies[name] = value
        request.headers.update(
            {
                name.title(): value
                for name, value in headers.items()
                if name != "cookie"
            }
        )


def start_async_server(
    container: ServletContainer,
    cache=None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> AsyncCachedServer:
    """Bind + serve ``container`` on the event-loop tier (started)."""
    return AsyncCachedServer(container, cache=cache, host=host, port=port).start()
