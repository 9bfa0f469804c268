"""The asyncio serving tier: wire buffers, doom semantics, byte identity.

Unit layers first (``PageEntry.wire``/``doom``, ``PageCache.hit``,
``Cache.fast_check`` miss-taxonomy preservation), then the server over
real sockets: the PR-6 assembly-hygiene guarantees -- Content-Length
derived from the assembled body, buffers byte-identical to a fresh
render, doom-then-rerender -- extended to the async fast path.
"""

from __future__ import annotations

import contextlib
import http.client
import socket
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.web.asyncserver as asyncserver
import repro.web.http as web_http
from repro.cache import flight as flight_module
from repro.cache.api import Cache
from repro.cache.autowebcache import AutoWebCache
from repro.cache.entry import PageEntry
from repro.cache.page_cache import PageCache
from repro.cache.semantics import SemanticsRegistry
from repro.harness.loadgen import AsyncLoadDriver
from repro.web.asyncserver import (
    AsyncCachedServer,
    _HttpConnection,
    build_wire,
    start_async_server,
)
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

from tests.conftest import bare_store, build_notes_app, node_store
from tests.test_single_flight import _spin_until


def get(target: str, *extra: str) -> bytes:
    lines = [f"GET {target} HTTP/1.1", "Host: t", *extra]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def post(target: str, form: bytes, *extra: str) -> bytes:
    lines = [
        f"POST {target} HTTP/1.1",
        "Host: t",
        "Content-Type: application/x-www-form-urlencoded",
        f"Content-Length: {len(form)}",
        *extra,
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + form


def exchange(port: int, payload: bytes) -> bytes:
    """Send ``payload`` in one ``sendall`` and read to EOF: the caller
    ends it with something that makes the server close."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def raw_exchange(port: int, target: str) -> bytes:
    """One raw GET with ``Connection: close``; returns the full wire
    response (the server closes, so EOF delimits it exactly)."""
    return exchange(port, get(target, "Connection: close"))


def split_responses(payload: bytes) -> list[tuple[int, bytes]]:
    """``(status, body)`` of each response in a wire stream; fails
    unless the stream is nothing but complete, well-framed responses."""
    responses = []
    while payload:
        head, separator, rest = payload.partition(b"\r\n\r\n")
        assert separator, payload
        lines = head.decode("latin-1").split("\r\n")
        version, status, _phrase = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        name, _, declared = lines[-1].partition(": ")
        assert name == "Content-Length"
        length = int(declared)
        assert len(rest) >= length, payload
        responses.append((int(status), rest[:length]))
        payload = rest[length:]
    return responses


@contextlib.contextmanager
def notes_server(start: bool = True, facade=AutoWebCache, **cache_options):
    """``(server, container, awc)``: the woven notes app, note 1 under
    topic ``a``, cached by ``facade(**cache_options)``.  Started, the
    server also fails the test if anything reached its loop's exception
    handler; unstarted, it never binds and its protocol objects are
    driven by hand (:func:`deliver`)."""
    _db, container = build_notes_app()
    awc = facade(**cache_options)
    awc.install(container.servlet_classes)
    server = AsyncCachedServer(container, cache=awc.cache)
    loop_errors: list[dict] = []
    server.loop.set_exception_handler(
        lambda _loop, context: loop_errors.append(context)
    )
    try:
        container.post(
            "/add", {"id": "1", "topic": "a", "body": "x", "score": "3"}
        )
        if start:
            server.start()
        yield server, container, awc
    finally:
        server.shutdown()
        awc.uninstall()
    assert loop_errors == []


class RecordingTransport:
    """The slice of ``asyncio.Transport`` the protocol uses."""

    def __init__(self) -> None:
        self.written: list[bytes] = []
        self.closed = False

    def write(self, payload: bytes) -> None:
        assert not self.closed, "wrote to a transport it had closed"
        self.written.append(payload)

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed


def deliver(server: AsyncCachedServer, chunks) -> tuple[bytes, bool]:
    """Feed ``chunks`` to a fresh connection as the loop would (nothing
    more once the protocol closed its transport); returns what it wrote
    and whether it closed.  An exception is the caller's failure."""
    transport = RecordingTransport()
    connection = _HttpConnection(server)
    connection.connection_made(transport)
    for chunk in chunks:
        if transport.closed:
            break
        connection.data_received(chunk)
    connection.connection_lost(None)
    return b"".join(transport.written), transport.closed


class TestWireBuffer:
    def test_wire_builds_once_and_pins(self):
        entry = PageEntry(key="/p", body="hello")
        calls = []

        def build(e):
            calls.append(e.key)
            return build_wire(e)

        first = entry.wire(build)
        second = entry.wire(build)
        assert first is second
        assert calls == ["/p"]
        assert b"hello" in first
        assert b"Content-Length: 5" in first

    def test_doom_kills_buffer(self):
        entry = PageEntry(key="/p", body="hello")
        assert entry.wire(build_wire) is not None
        entry.doom()
        assert entry.doomed
        assert entry.wire(build_wire) is None

    def test_invalidation_dooms_the_entry(self):
        pages = PageCache()
        entry = PageEntry(key="/p", body="hello")
        pages.insert(entry)
        entry.wire(build_wire)
        assert pages.invalidate("/p")
        assert entry.doomed
        assert entry.wire(build_wire) is None

    def test_refresh_and_release_do_not_doom(self):
        pages = PageCache()
        entry = PageEntry(key="/p", body="hello")
        pages.insert(entry)
        # In-place refresh: the replaced entry object is not doomed
        # (threads holding it may serve it once more, same tolerance as
        # the staleness window), and the successor is live.
        pages.insert(PageEntry(key="/p", body="fresh"))
        assert not entry.doomed
        # Cluster migration: the released entry stays live -- it is
        # about to be inserted on another node with its buffer intact.
        migrating = PageEntry(key="/q", body="move me")
        pages.insert(migrating)
        migrating.wire(build_wire)
        released = pages.release("/q")
        assert released is migrating
        assert not released.doomed
        assert released.wire(build_wire) is not None

    def test_expired_entry_reports_miss_via_hit(self):
        pages = PageCache()
        pages.insert(PageEntry(key="/p", body="x", expires_at=10.0))
        assert pages.hit("/p", now=20.0) is None
        # The expiry reason is preserved for the woven lookup.
        _entry, reason = pages.lookup("/p", now=20.0)
        assert reason == "expired"


class TestFastCheck:
    def request(self) -> HttpRequest:
        return HttpRequest("GET", "/page", {"id": "1"})

    def test_hit_is_recorded_like_check(self):
        cache = bare_store()
        request = self.request()
        cache.insert(request, "body", [])
        entry = cache.fast_check(request.cache_key(), request.uri)
        assert entry is not None and entry.body == "body"
        assert cache.stats.hits == 1
        assert cache.stats.lookups == 1

    def test_miss_records_nothing_and_preserves_taxonomy(self):
        cache = bare_store()
        request = self.request()
        cache.insert(request, "body", [])
        cache.invalidate_key(request.cache_key())
        # The fast-path probe must not consume the "invalidation"
        # reason (PageCache.lookup pops it destructively) nor count a
        # lookup of its own.
        assert cache.fast_check(request.cache_key(), request.uri) is None
        assert cache.stats.lookups == 0
        assert cache.stats.misses_invalidation == 0
        assert cache.check(request) is None
        assert cache.stats.misses_invalidation == 1
        assert cache.stats.lookups == 1

    def test_forced_miss_mode_disables_fast_path(self):
        cache = bare_store(forced_miss=True)
        request = self.request()
        assert cache.fast_check(request.cache_key(), request.uri) is None
        assert cache.stats.lookups == 0

    def test_uncacheable_uri_is_not_probed(self):
        semantics = SemanticsRegistry().mark_uncacheable("/page")
        cache = bare_store(semantics=semantics)
        request = self.request()
        assert cache.fast_check(request.cache_key(), request.uri) is None
        assert cache.stats.lookups == 0

    def test_a_request_predicate_makes_every_probe_miss(self):
        # A predicate needs the whole request, which the probe does not
        # have: it misses, and the woven check asks the predicate.
        semantics = SemanticsRegistry().mark_uncacheable_when(
            lambda request: request.get_parameter("fresh") == "1"
        )
        cache = bare_store(semantics=semantics)
        request = self.request()
        cache.insert(request, "body", [])
        assert cache.fast_check(request.cache_key(), request.uri) is None
        assert cache.stats.lookups == 0
        assert cache.check(request).body == "body"

    def test_ring_probe_routes_to_the_owner(self):
        router = AutoWebCache(n_nodes=2).cache
        requests = [HttpRequest("GET", "/page", {"id": str(i)}) for i in range(16)]
        for request in requests:
            router.insert(request, f"body {request.params['id']}", [])
        owners = set()
        for request in requests:
            key = request.cache_key()
            owner = router.node(router.owner_name(key)).cache
            hits = owner.stats.hits
            entry = router.fast_check(key, request.uri)
            assert entry is not None and key in owner
            assert entry.body == f"body {request.params['id']}"
            assert owner.stats.hits == hits + 1
            owners.add(owner)
        assert len(owners) == 2  # the keys spread over both shards
        assert router.fast_check("/page?id=99", "/page") is None


class TestAsyncServerHttp:
    def test_fast_path_bytes_identical_to_fresh_render(self):
        db, container = build_notes_app()
        awc = AutoWebCache()
        awc.install(container.servlet_classes)
        try:
            container.post(
                "/add", {"id": "1", "topic": "a", "body": "x", "score": "3"}
            )
            with start_async_server(container, cache=awc.cache) as server:
                fresh = raw_exchange(server.port, "/view_topic?topic=a")
                cached = raw_exchange(server.port, "/view_topic?topic=a")
                assert server.stats.slow_requests == 1
                assert server.stats.fast_hits == 1
            assert fresh == cached  # whole response, headers included
            assert fresh.startswith(b"HTTP/1.1 200 OK\r\n")
            head, _, body = fresh.partition(b"\r\n\r\n")
            assert f"Content-Length: {len(body)}".encode() in head
        finally:
            awc.uninstall()

    def test_doom_then_rerender_over_http(self):
        db, container = build_notes_app()
        awc = AutoWebCache()
        awc.install(container.servlet_classes)
        try:
            with start_async_server(container, cache=awc.cache) as server:
                conn = http.client.HTTPConnection("127.0.0.1", server.port)
                conn.request("GET", "/view_topic?topic=a")
                before = conn.getresponse().read()
                conn.request("GET", "/view_topic?topic=a")
                assert conn.getresponse().read() == before
                assert server.stats.fast_hits == 1
                conn.request(
                    "POST",
                    "/add",
                    body="id=1&topic=a&body=x&score=3",
                    headers={
                        "Content-Type": "application/x-www-form-urlencoded"
                    },
                )
                posted = conn.getresponse()
                posted.read()
                assert posted.status == 200
                conn.request("GET", "/view_topic?topic=a")
                after = conn.getresponse().read()
                conn.close()
            assert after != before
            assert b"1:x" in after
            # The invalidated page re-rendered through the slow path and
            # its miss kept the correct taxonomy.
            assert awc.stats.misses_invalidation == 1
        finally:
            awc.uninstall()

    def test_content_length_tracks_hole_length_changes(self):
        """PR-6's assembly-hygiene bar on the async path: /stamped swaps
        a per-request hole of growing width into a cached fragment; the
        declared Content-Length must match every assembled body."""
        from tests.test_cache_fragments import add, build_fragment_app

        db, container = build_fragment_app()
        awc = AutoWebCache()
        awc.install(container.servlet_classes)
        try:
            add(container, 1, "a", "x")
            with start_async_server(container, cache=awc.cache) as server:
                conn = http.client.HTTPConnection("127.0.0.1", server.port)
                lengths = set()
                for _ in range(11):
                    conn.request("GET", "/stamped?topic=a")
                    response = conn.getresponse()
                    body = response.read()
                    declared = int(response.getheader("Content-Length"))
                    assert declared == len(body)
                    lengths.add(len(body))
                conn.close()
            # The stamp grew from 1 to 2 digits: two distinct assembled
            # lengths, each with a correct Content-Length.
            assert len(lengths) == 2
        finally:
            awc.uninstall()

    def test_sessions_disable_the_fast_path(self):
        db, container = build_notes_app()
        sessioned = ServletContainer(use_sessions=True)
        for uri in container.uris:
            sessioned.register(uri, container.servlet_for(uri))
        awc = AutoWebCache()
        awc.install(sessioned.servlet_classes)
        try:
            with start_async_server(sessioned, cache=awc.cache) as server:
                assert not server.fast_path_enabled
                conn = http.client.HTTPConnection("127.0.0.1", server.port)
                for _ in range(2):
                    conn.request("GET", "/view_topic?topic=a")
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                first_cookie = response.getheader("Set-Cookie")
                conn.close()
                assert server.stats.fast_hits == 0
                assert server.stats.slow_requests == 2
            assert first_cookie  # session machinery ran on every request
        finally:
            awc.uninstall()

    def test_cookie_carrying_request_bypasses_fast_path(self):
        db, container = build_notes_app()
        awc = AutoWebCache()
        awc.install(container.servlet_classes)
        try:
            container.get("/view_topic", {"topic": "a"})  # warm the page
            with start_async_server(container, cache=awc.cache) as server:
                conn = http.client.HTTPConnection("127.0.0.1", server.port)
                conn.request(
                    "GET", "/view_topic?topic=a", headers={"Cookie": "k=v"}
                )
                assert conn.getresponse().status == 200
                conn.close()
                assert server.stats.fast_hits == 0
                assert server.stats.slow_requests == 1
        finally:
            awc.uninstall()

    def test_unroutable_uri_gets_404_with_content_length(self):
        db, container = build_notes_app()
        with start_async_server(container) as server:
            payload = raw_exchange(server.port, "/nope")
            assert payload.startswith(b"HTTP/1.1 404 Not Found\r\n")
            head, _, body = payload.partition(b"\r\n\r\n")
            assert f"Content-Length: {len(body)}".encode() in head

    def test_malformed_request_gets_400(self):
        db, container = build_notes_app()
        with start_async_server(container) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(b"GARBAGE\r\n\r\n")
                payload = sock.recv(65536)
            assert payload.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert server.stats.bad_requests == 1

    def test_shutdown_is_idempotent_and_releases_the_port(self):
        db, container = build_notes_app()
        server = start_async_server(container)
        port = server.port
        assert raw_exchange(port, "/view_topic?topic=a").startswith(
            b"HTTP/1.1 200"
        )
        server.shutdown()
        server.shutdown()  # second call is a no-op
        with socket.socket() as probe:
            assert probe.connect_ex(("127.0.0.1", port)) != 0

    def test_shutdown_with_client_sockets_still_open(self):
        """``shutdown()`` used to call ``Server.close()`` off the loop
        thread, racing connection teardown on the loop: now and then
        ``Server._wakeup`` ran twice and the second run raised
        ``TypeError``.  Clients that are still connected (or closing at
        that very moment) must not be able to break a shutdown, and the
        server closes what they left open."""
        db, container = build_notes_app()
        loop_errors = []
        for _round in range(50):
            server = start_async_server(container)
            server.loop.set_exception_handler(
                lambda _loop, context: loop_errors.append(context)
            )
            clients = [
                socket.create_connection(("127.0.0.1", server.port), timeout=10)
                for _ in range(8)
            ]
            try:
                for sock in clients:
                    sock.sendall(
                        b"GET /view_topic?topic=a HTTP/1.1\r\nHost: t\r\n\r\n"
                    )
                    assert sock.recv(65536).startswith(b"HTTP/1.1 200")
                # Six clients hang up as the shutdown starts; two stay.
                for sock in clients[:6]:
                    sock.close()
                server.shutdown()
                assert not server._thread.is_alive()
                assert not server.open_transports
                for sock in clients[6:]:
                    assert sock.recv(65536) == b""  # closed by the server
            finally:
                for sock in clients:
                    sock.close()
        assert loop_errors == []

    def test_concurrent_load_all_served(self):
        db, container = build_notes_app()
        awc = AutoWebCache()
        awc.install(container.servlet_classes)
        try:
            container.post(
                "/add", {"id": "1", "topic": "a", "body": "x", "score": "0"}
            )
            container.post(
                "/add", {"id": "2", "topic": "b", "body": "y", "score": "0"}
            )
            with start_async_server(container, cache=awc.cache) as server:
                result = AsyncLoadDriver(
                    "127.0.0.1",
                    server.port,
                    ["/view_topic?topic=a", "/view_topic?topic=b"],
                    n_connections=4,
                    iterations=25,
                ).run()
                stats = server.stats.snapshot()
            assert result.errors == []
            assert result.server_errors == 0
            assert result.statuses == {200: 100}
            assert stats["fast_hits"] + stats["slow_requests"] == 100
            assert stats["fast_hits"] >= 90  # 2 cold misses at most + races
        finally:
            awc.uninstall()



class TestRequestFraming:
    """Hostile or broken framing is refused before anything is served."""

    @pytest.mark.parametrize("declared", ["-5", "+5", "5_0", "-0"])
    def test_content_length_must_be_digits(self, declared):
        # ``int()`` takes all of these.  ``-5`` used to serve the
        # request and then re-parse the tail of its own header block as
        # a second one (200 + 400); the others framed a body the client
        # never declared that way.
        with notes_server() as (server, _container, _awc):
            payload = exchange(
                server.port,
                f"GET /view_note?id=1 HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {declared}\r\n\r\nhello".encode("latin-1"),
            )
            assert [status for status, _ in split_responses(payload)] == [400]
            assert server.stats.bad_requests == 1
            assert server.stats.slow_requests == 0

    def test_declared_body_above_the_cap_is_refused_at_once(self):
        # Used to buffer for ever: the size cap only applied while no
        # blank line had arrived.  No body byte is sent here -- the 400
        # must not wait for one.
        with notes_server() as (server, _container, _awc):
            payload = exchange(
                server.port,
                b"POST /score HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 99999999999\r\n\r\n",
            )
            assert [status for status, _ in split_responses(payload)] == [400]
            assert server.stats.slow_requests == 0

    def test_header_block_cap_holds_when_the_blank_line_arrives_with_it(self):
        with notes_server(start=False) as (server, _container, _awc):
            head = b"GET /view_note?id=1 HTTP/1.1\r\nX: " + b"a" * 70000
            payload, closed = deliver(server, [head + b"\r\n\r\n"])
            assert [status for status, _ in split_responses(payload)] == [400]
            assert closed

    def test_undecodable_form_body_is_the_clients_error(self):
        with notes_server() as (server, _container, _awc):
            payload = exchange(
                server.port,
                post("/score", b"id=\xff\xfe&score=1")
                + get("/view_note?id=1", "Connection: close"),
            )
            # 400, not 500 -- and the framing was sound, so the
            # connection goes on to serve the next request.
            assert [status for status, _ in split_responses(payload)] == [
                400,
                200,
            ]
            assert server.stats.bad_requests == 1


class Forgetful(dict):
    """A head memo that never remembers: every request takes the
    general parser, the reference the memo must equal."""

    def __setitem__(self, head, probe) -> None:
        pass


#: Targets that differ only in how the query string is spelled
#: (percent-encoded, ``+``, unsorted, duplicate and valueless
#: parameters), a second page and an unroutable URI.
MEMO_TARGETS = (
    "/view_note?id=1",
    "/view_note?id=%31",
    "/view_note?id=1&x=a+b",
    "/view_note?x=a%20b&id=1",
    "/view_note?id=1&id=1",
    "/view_note?id=1&flag",
    "/view_topic?topic=a",
    "/view_topic?topic=%61",
    "/nope",
)


@st.composite
def memo_requests(draw) -> bytes:
    """One request of the kind a keep-alive client pipelines: GETs
    (some with a cookie, a body or a closing connection), HEADs and the
    POST that dooms note 1's pages, after 0-2 empty lines."""
    method = draw(st.sampled_from(("GET", "GET", "GET", "HEAD", "POST")))
    version = draw(st.sampled_from(("HTTP/1.1", "HTTP/1.1", "HTTP/1.1", "HTTP/1.0")))
    headers = ["Host: t"]
    if method == "POST":
        target = "/score"
        body = f"id=1&score={draw(st.integers(1, 9))}".encode("latin-1")
        headers.append("Content-Type: application/x-www-form-urlencoded")
    else:
        target = draw(st.sampled_from(MEMO_TARGETS))
        body = draw(st.sampled_from((b"", b"", b"abc")))
    if body or draw(st.booleans()):
        headers.append(f"Content-Length: {len(body)}")
    if draw(st.integers(0, 3)) == 0:
        headers.append("Cookie: k=v")
    connection = draw(st.sampled_from((None, None, None, None, "close", "keep-alive")))
    if connection is not None:
        headers.append(f"Connection: {connection}")
    lines = [f"{method} {target} {version}", *draw(st.permutations(headers))]
    head = "".join(f"{line}\r\n" for line in lines) + "\r\n"
    return b"\r\n" * draw(st.integers(0, 2)) + head.encode("latin-1") + body


class TestHeadMemo:
    """The server's head memo answers exactly what the general parser
    would, and remembers nothing else."""

    def test_memo_equals_the_general_parser_in_every_split(self):
        with notes_server(start=False) as (server, container, awc):

            def replay(memo, chunks) -> tuple[bytes, bool, dict]:
                # Same database and an empty cache for every delivery.
                container.post("/score", {"id": "1", "score": "3"})
                awc.cache.clear()
                server.head_memo = memo
                before = server.stats.snapshot()
                payload, closed = deliver(server, chunks)
                after = server.stats.snapshot()
                return payload, closed, {k: after[k] - before[k] for k in after}

            @settings(max_examples=120, deadline=None)
            @given(
                st.lists(memo_requests(), min_size=1, max_size=8).map(b"".join),
                st.sets(st.integers(1, 2000), max_size=8),
            )
            def equivalent(stream, cuts):
                expected = replay(Forgetful(), [stream])
                learned: dict = {}
                assert replay(learned, [stream]) == expected
                bounds = [0, *sorted(c for c in cuts if c < len(stream)), len(stream)]
                for chunks in (
                    [stream],
                    [stream[a:b] for a, b in zip(bounds, bounds[1:])],
                    [stream[i : i + 1] for i in range(len(stream))],
                ):
                    assert replay(dict(learned), chunks) == expected

            equivalent()

    def test_a_remembered_head_is_answered_from_the_memo(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            asyncserver,
            "HttpRequest",
            lambda *args: built.append(args) or HttpRequest(*args),
        )
        with notes_server(start=False) as (server, _container, _awc):
            request = get("/view_note?x=a+b&id=%31")
            deliver(server, [request])  # the miss that remembers the head
            assert server.head_memo == {
                request[:-4]: ("/view_note?id=1&x=a+b", "/view_note", False)
            }
            del built[:]
            payload, closed = deliver(server, [b"\r\n" + request * 3])
            assert split_responses(payload) == [(200, b"<p>x|3</p>")] * 3
            assert not closed
            assert server.stats.fast_hits == 3 and built == []

    def test_a_remembered_probe_that_misses_parses_once(self, monkeypatch):
        built, encoded, probes = [], [], []
        real_encode, real_probe = web_http.encode_query_string, Cache.fast_check
        monkeypatch.setattr(
            asyncserver,
            "HttpRequest",
            lambda *args: built.append(args) or HttpRequest(*args),
        )
        monkeypatch.setattr(
            web_http,
            "encode_query_string",
            lambda params: encoded.append(1) or real_encode(params),
        )
        monkeypatch.setattr(
            Cache,
            "fast_check",
            lambda cache, key, uri: probes.append(key) or real_probe(cache, key, uri),
        )
        with notes_server(start=False) as (server, container, awc):
            request = get("/view_note?id=1")
            deliver(server, [request])
            container.post("/score", {"id": "1", "score": "7"})  # dooms it
            del built[:], encoded[:], probes[:]
            payload, _closed = deliver(server, [request])
            assert split_responses(payload) == [(200, b"<p>x|7</p>")]
            assert server.stats.slow_requests == 2
            assert awc.stats.misses_invalidation == 1
        assert built == [("GET", "/view_note?id=1")]
        assert encoded == []  # the remembered key was seeded
        assert probes == ["/view_note?id=1"]  # probed once, not twice

    @pytest.mark.parametrize(
        "refused",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /view_note?id=1 HTTP/1.1\r\nContent-Length: -0\r\n\r\n",
            b"GET /view_note?id=1 HTTP/1.1\r\nContent-Length: +0\r\n\r\n",
            b"GET /view_note?id=1 HTTP/1.1\r\n"
            b"Content-Length: 0\r\nContent-Length: 3\r\n\r\nabc",
            b"GET /view_note?id=1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET /view_note?id=1 HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
            b"GET /view_note?id=1 HTTP/1.1\r\nX: " + b"a" * 70000 + b"\r\n\r\n",
        ],
        ids=["line", "minus", "plus", "conflict", "chunked", "body-cap", "head-cap"],
    )
    def test_refused_heads_never_enter_the_memo(self, refused):
        with notes_server(start=False) as (server, _container, _awc):
            deliver(server, [get("/view_note?id=1")])  # the page is cached
            server.head_memo.clear()
            for _ in range(2):
                payload, closed = deliver(server, [refused])
                assert [status for status, _ in split_responses(payload)] == [400]
                assert closed
            assert server.head_memo == {}
            assert server.stats.bad_requests == 2

    def test_only_body_less_cookie_less_gets_are_remembered(self):
        with notes_server(start=False) as (server, _container, _awc):
            deliver(server, [get("/view_note?id=1")])  # the page is cached
            server.head_memo.clear()
            for request in (
                get("/view_note?id=1", "Cookie: k=v"),
                get("/view_note?id=1", "Content-Length: 3") + b"abc",
                post("/score", b"id=1&score=3"),
                b"HEAD /view_note?id=1 HTTP/1.1\r\nHost: t\r\n\r\n",
            ):
                for _ in range(2):
                    deliver(server, [request])
            assert server.head_memo == {}
            assert server.stats.fast_hits == 2  # the GET with a body, twice
            plain = get("/view_note?id=1", "Content-Length: 0", "Connection: close")
            payload, closed = deliver(server, [plain * 2])
            assert split_responses(payload) == [(200, b"<p>x|3</p>")] and closed
            assert server.head_memo == {
                plain[:-4]: ("/view_note?id=1", "/view_note", True)
            }

    def test_the_memo_stays_within_its_bound(self):
        limit = asyncserver._HEAD_MEMO_LIMIT
        with notes_server(start=False) as (server, _container, _awc):
            sizes = []

            def unique_heads():
                for i in range(50_000):
                    yield get("/view_note?id=1", f"X-Request: {i}")
                    sizes.append(len(server.head_memo))

            payload, closed = deliver(server, unique_heads())
            assert not closed and payload.count(b"HTTP/1.1 200 OK") == 50_000
            assert server.stats.fast_hits == 49_999
        assert max(sizes) == limit  # filled up, emptied, filled again
        assert sizes[-1] == 50_000 % limit

    def test_the_head_cap_is_checked_before_the_memo(self, monkeypatch):
        with notes_server(start=False) as (server, _container, _awc):
            request = get("/view_note?id=1", "X-Pad: " + "a" * 200)
            deliver(server, [request, request])
            assert server.stats.fast_hits == 1 and request[:-4] in server.head_memo
            monkeypatch.setattr(asyncserver, "_MAX_HEAD_BYTES", 100)
            payload, closed = deliver(server, [request])
            assert [status for status, _ in split_responses(payload)] == [400]
            assert closed and server.stats.fast_hits == 1

    def test_a_request_predicate_turns_the_fast_path_off(self):
        stream = (
            get("/view_note?id=1") * 3
            + get("/view_note?id=1&fresh=1") * 2
            + post("/score", b"id=1&score=7")
            + get("/view_note?id=1") * 2
            + get("/view_topic?topic=a", "Connection: close")
        )
        with notes_server(start=False) as (server, _container, _awc):
            plain, _closed = deliver(server, [stream])
            assert server.stats.fast_hits == 4
        semantics = SemanticsRegistry().mark_uncacheable_when(
            lambda request: request.get_parameter("fresh") == "1"
        )
        with notes_server(start=False, semantics=semantics) as (server, _c, awc):
            guarded, _closed = deliver(server, [stream])
            assert server.stats.fast_hits == 0
            assert awc.stats.hits == 3  # served by the woven check instead
            assert awc.stats.uncacheable == 2
        assert guarded == plain


#: Slow GET, fast GET, the POST that dooms the page, the same GET
#: again, an unroutable URI, one more page.
BURST = (
    (get, "/view_note?id=1"),
    (get, "/view_note?id=1"),
    (post, "/score", b"id=1&score=7"),
    (get, "/view_note?id=1"),
    (get, "/nope"),
    (get, "/view_topic?topic=a"),
)
#: The burst as one keep-alive stream whose last request closes.
PIPELINED = b"".join(build(*args) for build, *args in BURST[:-1]) + BURST[-1][0](
    *BURST[-1][1:], "Connection: close"
)
BURST_STATUSES = [200, 200, 200, 200, 404, 200]


class FirstCallStalls(HttpServlet):
    """Renders its call number; only the first call waits on the gate."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.calls = 0

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        self.calls += 1
        call = self.calls
        if call == 1:
            self.entered.set()
            self.gate.wait(timeout=10)
        response.write(f"<p>render {call}</p>")


class TestRunToCompletion:
    """Every request is parsed, answered and written before the next one
    is looked at -- on the loop thread, hits and misses alike."""

    def test_pipelined_burst_equals_one_request_at_a_time(self):
        with notes_server() as (server, _container, _awc):
            burst = exchange(server.port, PIPELINED)
            assert server.stats.fast_hits == 1
            assert server.stats.slow_requests == 5
            assert server.stats.connections == 1
        with notes_server() as (server, _container, _awc):
            singly = [
                exchange(server.port, build(*args, "Connection: close"))
                for build, *args in BURST
            ]
        assert burst == b"".join(singly)
        responses = split_responses(burst)
        assert [status for status, _ in responses] == BURST_STATUSES
        assert responses[0][1] == responses[1][1] == b"<p>x|3</p>"
        assert responses[3][1] == b"<p>x|7</p>"  # fresh, not the doomed page

    def test_any_split_of_the_stream_yields_the_same_bytes(self):
        stream = PIPELINED
        with notes_server(start=False) as (server, container, _awc):

            def replay(chunks) -> tuple[bytes, bool]:
                # Same database state for every delivery; whatever the
                # cache holds, hit bytes equal freshly rendered bytes.
                container.post("/score", {"id": "1", "score": "3"})
                return deliver(server, chunks)

            expected = replay([stream])
            assert expected[1]
            assert [s for s, _ in split_responses(expected[0])] == BURST_STATUSES
            for cut in range(1, len(stream)):
                assert replay([stream[:cut], stream[cut:]]) == expected, cut
            assert replay([stream[i : i + 1] for i in range(len(stream))]) == expected

            @settings(max_examples=50, deadline=None)
            @given(st.sets(st.integers(1, len(stream) - 1), max_size=12))
            def split_at(cuts):
                bounds = [0, *sorted(cuts), len(stream)]
                chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
                assert replay(chunks) == expected

            split_at()

    def test_arbitrary_bytes_never_raise_on_the_loop(self):
        fragments = st.sampled_from(
            [
                b"GET ", b"POST ", b"/view_note?id=1", b"/score", b"/nope",
                b" HTTP/1.1", b" HTTP/1.0", b"\r\n", b"\r\n\r\n", b" ", b":",
                b"Content-Length: ", b"0", b"12", b"-5", b"+5", b"99999999999",
                b"Content-Type: application/x-www-form-urlencoded",
                b"Connection: close", b"Cookie: k=v; =; x",
                b"id=1&score=7", b"\xff\xfe", b"%", b"?a=%ff&&=",
                b"Content-Length: 12\r\nContent-Length: 0",
                b"Content-Length: 12\r\ncontent-length:12",
                b"Transfer-Encoding: chunked", b"c\r\nid=1&score=7\r\n0",
                b"\r\n\r\n\r\n", b"\r",
            ]
        )
        noise = st.lists(fragments | st.binary(max_size=8), max_size=24)
        with notes_server(start=False) as (server, _container, _awc):

            @settings(max_examples=300, deadline=None)
            @given(noise.map(b"".join), st.integers(0, 80))
            def feed(data, cut):
                bad_before = server.stats.bad_requests
                # Raising here is what would reach the loop's handler.
                payload, _closed = deliver(server, [data[:cut], data[cut:]])
                statuses = [status for status, _ in split_responses(payload)]
                assert set(statuses) <= {200, 400, 404, 405, 500}
                assert statuses.count(400) == server.stats.bad_requests - bad_before

            feed()

    def test_conflicting_content_lengths_answer_400_and_close(self):
        # Believing the last length (0) would run the POST with no form
        # and then parse its body as a second request line.
        smuggle = (
            b"POST /score HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n"
            b"Content-Length: 12\r\nContent-Length: 0\r\n\r\nid=1&score=7"
        )
        with notes_server(start=False) as (server, container, _awc):
            payload, closed = deliver(server, [smuggle + get("/view_note?id=1")])
            assert closed
            assert [status for status, _ in split_responses(payload)] == [400]
            assert (server.stats.bad_requests, server.stats.slow_requests) == (1, 0)
            assert container.get("/view_note", {"id": "1"}).body == "<p>x|3</p>"
            # The same length twice is one length.
            agreed = smuggle.replace(b"Content-Length: 0", b"content-length:12")
            payload, closed = deliver(server, [agreed])
            assert not closed
            assert [status for status, _ in split_responses(payload)] == [200]
            assert container.get("/view_note", {"id": "1"}).body == "<p>x|7</p>"

    def test_transfer_encoding_answers_400_and_closes(self):
        chunked = (
            b"POST /score HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"c\r\nid=1&score=7\r\n0\r\n\r\n"
        )
        with notes_server(start=False) as (server, container, _awc):
            # Ignored, the chunk framing would be read as a request line.
            payload, closed = deliver(server, [chunked + get("/view_note?id=1")])
            assert closed
            assert [status for status, _ in split_responses(payload)] == [400]
            assert (server.stats.bad_requests, server.stats.slow_requests) == (1, 0)
            assert container.get("/view_note", {"id": "1"}).body == "<p>x|3</p>"

    def test_empty_lines_before_a_request_line_are_skipped(self):
        padded = b"".join(
            b"\r\n" * pad + build(*args)
            for pad, (build, *args) in zip((2, 0, 1, 3, 1), BURST[:-1])
        ) + b"\r\n" + BURST[-1][0](*BURST[-1][1:], "Connection: close")
        with notes_server(start=False) as (server, container, _awc):

            def replay(chunks) -> tuple[bytes, bool]:
                container.post("/score", {"id": "1", "score": "3"})
                return deliver(server, chunks)

            expected = replay([PIPELINED])
            assert replay([padded]) == expected
            assert server.stats.bad_requests == 0

            @settings(max_examples=50, deadline=None)
            @given(st.sets(st.integers(1, len(padded) - 1), max_size=12))
            def split_at(cuts):
                bounds = [0, *sorted(cuts), len(padded)]
                chunks = [padded[a:b] for a, b in zip(bounds, bounds[1:])]
                assert replay(chunks) == expected

            split_at()
            # Padding and nothing else is not a request: nothing is
            # answered, nothing is counted, the connection stays open.
            assert deliver(server, [b"\r\n" * 40000]) == (b"", False)

    def test_nothing_pipelined_behind_a_closing_request_is_run(self):
        with notes_server(start=False) as (server, container, _awc):
            payload, closed = deliver(
                server,
                [
                    get("/view_note?id=1", "Connection: close")
                    + post("/score", b"id=1&score=7")
                ],
            )
            assert closed
            assert split_responses(payload) == [(200, b"<p>x|3</p>")]
            assert server.stats.slow_requests == 1
            assert container.get("/view_note", {"id": "1"}).body == "<p>x|3</p>"

    def test_raising_servlet_answers_500_and_the_connection_lives_on(self):
        with notes_server() as (server, _container, awc):
            payload = exchange(
                server.port,
                get("/view_note?id=abc")
                + get("/view_note?id=1", "Connection: close"),
            )
            (failed, page), served = split_responses(payload)
            assert failed == 500 and b"ValueError" in page
            assert served == (200, b"<p>x|3</p>")
            assert awc.cache.open_flights == 0

    def test_flight_led_by_another_thread_feeds_the_loop(self):
        """The loop thread is an ordinary waiter on a flight some other
        thread leads: it serves the leader's page, rendered once."""
        view = FirstCallStalls()
        container = ServletContainer()
        container.register("/stall", view)
        awc = AutoWebCache()
        awc.install(container.servlet_classes)
        try:
            led: list[str] = []
            leader = threading.Thread(
                target=lambda: led.append(container.get("/stall").body)
            )
            leader.start()
            assert view.entered.wait(timeout=5)
            flight = node_store(awc).flight_for("/stall")
            with start_async_server(container, cache=awc.cache) as server:
                answer: list[bytes] = []
                client = threading.Thread(
                    target=lambda: answer.append(raw_exchange(server.port, "/stall"))
                )
                client.start()
                assert _spin_until(lambda: flight.waiters == 1)
                view.gate.set()
                client.join(timeout=10)
                leader.join(timeout=10)
                assert not client.is_alive() and not leader.is_alive()
            assert split_responses(answer[0]) == [(200, b"<p>render 1</p>")]
            assert led == ["<p>render 1</p>"]
            assert view.calls == 1
            assert awc.stats.coalesced_hits == 1
        finally:
            view.gate.set()
            awc.uninstall()

    def test_stuck_foreign_leader_holds_the_loop_no_longer_than_the_timeout(
        self, monkeypatch
    ):
        monkeypatch.setattr(flight_module, "FLIGHT_TIMEOUT", 0.1)
        view = FirstCallStalls()
        container = ServletContainer()
        container.register("/stall", view)
        awc = AutoWebCache()
        awc.install(container.servlet_classes)
        try:
            leader = threading.Thread(target=lambda: container.get("/stall"))
            leader.start()
            assert view.entered.wait(timeout=5)
            with start_async_server(container, cache=awc.cache) as server:
                started = time.monotonic()
                payload = raw_exchange(server.port, "/stall")
                elapsed = time.monotonic() - started
            # Each wait on the stuck flight is bounded by FLIGHT_TIMEOUT;
            # out of attempts, the loop renders the page itself.
            assert split_responses(payload) == [(200, b"<p>render 2</p>")]
            assert elapsed < 5  # the leader would stall for 10 s
            assert leader.is_alive()
        finally:
            view.gate.set()
            leader.join(timeout=10)
            awc.uninstall()
        assert not leader.is_alive()

    def test_slow_get_builds_one_request_and_encodes_its_key_once(
        self, monkeypatch
    ):
        built, encoded = [], []
        real_encode = web_http.encode_query_string

        def counting_request(*args, **kwargs):
            built.append(args)
            return HttpRequest(*args, **kwargs)

        monkeypatch.setattr(asyncserver, "HttpRequest", counting_request)
        monkeypatch.setattr(
            web_http,
            "encode_query_string",
            lambda params: encoded.append(1) or real_encode(params),
        )
        with notes_server(start=False) as (server, _container, awc):
            del built[:], encoded[:]  # the fixture's own POST
            payload, _closed = deliver(server, [get("/view_note?id=1")])
            assert split_responses(payload) == [(200, b"<p>x|3</p>")]
            assert server.stats.slow_requests == 1 and awc.stats.inserts == 1
        assert built == [("GET", "/view_note?id=1")]
        assert len(encoded) == 1
