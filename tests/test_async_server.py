"""The asyncio serving tier: wire buffers, doom semantics, byte identity.

Unit layers first (``PageEntry.wire``/``doom``, ``PageCache.hit``,
``Cache.fast_check`` miss-taxonomy preservation), then the server over
real sockets: the PR-6 assembly-hygiene guarantees -- Content-Length
derived from the assembled body, buffers byte-identical to a fresh
render, doom-then-rerender -- extended to the async fast path.
"""

from __future__ import annotations

import http.client
import socket

from repro.cache.api import Cache
from repro.cache.autowebcache import AutoWebCache
from repro.cache.entry import PageEntry
from repro.cache.page_cache import PageCache
from repro.cache.semantics import SemanticsRegistry
from repro.cluster import ClusterAutoWebCache
from repro.harness.loadgen import AsyncLoadDriver
from repro.web.asyncserver import build_wire, start_async_server
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest

from tests.conftest import build_notes_app


def raw_exchange(port: int, target: str) -> bytes:
    """One raw GET with ``Connection: close``; returns the full wire
    response (the server closes, so EOF delimits it exactly)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            .encode("latin-1")
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


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
        cache = Cache()
        request = self.request()
        cache.insert(request, "body", [])
        entry = cache.fast_check(request)
        assert entry is not None and entry.body == "body"
        assert cache.stats.hits == 1
        assert cache.stats.lookups == 1

    def test_miss_records_nothing_and_preserves_taxonomy(self):
        cache = Cache()
        request = self.request()
        cache.insert(request, "body", [])
        cache.invalidate_key(request.cache_key())
        # The fast-path probe must not consume the "invalidation"
        # reason (PageCache.lookup pops it destructively) nor count a
        # lookup of its own.
        assert cache.fast_check(request) is None
        assert cache.stats.lookups == 0
        assert cache.stats.misses_invalidation == 0
        assert cache.check(request) is None
        assert cache.stats.misses_invalidation == 1
        assert cache.stats.lookups == 1

    def test_forced_miss_mode_disables_fast_path(self):
        cache = Cache(forced_miss=True)
        request = self.request()
        assert cache.fast_check(request) is None
        assert cache.stats.lookups == 0

    def test_uncacheable_uri_is_not_probed(self):
        semantics = SemanticsRegistry().mark_uncacheable("/page")
        cache = Cache(semantics=semantics)
        assert cache.fast_check(self.request()) is None
        assert cache.stats.lookups == 0


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

    def test_cluster_with_batched_bus(self):
        """The async tier in front of a sharded cluster whose bus
        group-commits: fast hits route through the owning shard, writes
        batch onto the bus, invalidation still dooms the buffer."""
        db, container = build_notes_app()
        awc = ClusterAutoWebCache(n_nodes=2, bus_batching=True)
        awc.install(container.servlet_classes)
        try:
            assert awc.bus.batched
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
            assert b"1:x" in after
            assert awc.bus.stats.published >= 1
            assert awc.bus.stats.batches >= 1
        finally:
            awc.uninstall()
