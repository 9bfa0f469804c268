"""What a resident page costs: the entry record, the body stored once,
wrapper-free dependency registrations.

The tracemalloc test replays ``rubis_browse_hot`` requests in-process
through the serving tier's protocol object (parse -> ``fast_check`` ->
render -> insert; no sockets, no loop) and divides the bytes the replay
left allocated by the entries it added, after taking out what the new
entries hold of their pages: the body ``str`` and the pinned wire
buffer.  What is left is the bookkeeping a page costs beyond its bytes
-- the entry record, its dependency registrations and index buckets,
its head-memo line -- and the bound pins it.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from bench.workloads import WORKLOADS, build_app, build_facade, generate
from repro.cache.entry import PageEntry
from repro.web.asyncserver import AsyncCachedServer, _HttpConnection, build_wire

from tests.conftest import node_store

#: Bytes a new resident page may retain beyond its body and wire buffer.
OVERHEAD_BOUND = 1500


class _Transport:
    def write(self, payload: bytes) -> None:
        pass

    def is_closing(self) -> bool:
        return False


def _replay(server: AsyncCachedServer, requests) -> None:
    connection = _HttpConnection(server)
    connection.connection_made(_Transport())
    for request in requests:
        connection.data_received(request.wire_for({}))
    connection.connection_lost(None)


def _page_bytes(entry: PageEntry) -> int:
    """What an entry holds of its page: body text and/or wire buffer."""
    held = (entry._text, entry._wire)
    return sum(sys.getsizeof(part) for part in held if part is not None)


def test_a_page_entry_has_no_instance_dict():
    entry = PageEntry("/a", "body")
    assert not hasattr(entry, "__dict__")


def test_pinning_the_wire_buffer_keeps_one_copy_of_the_body():
    body = "<p>café — naïve</p>"  # more bytes than characters
    entry = PageEntry("/a", body)
    wire = entry.wire(build_wire)
    assert wire.endswith(body.encode("utf-8"))
    assert entry._text is None
    assert entry.body == body and entry.size == len(body)
    assert entry.wire(build_wire) is wire


def test_a_doomed_entry_still_reads_its_body():
    entry = PageEntry("/a", "only copy")
    entry.wire(build_wire)
    entry.doom()
    assert entry.wire(build_wire) is None
    assert entry.body == "only copy" and entry.size == len("only copy")


def test_a_resident_page_costs_its_bytes_plus_a_small_record():
    workload = WORKLOADS["rubis_browse_hot"]
    app, awc = build_app(workload), build_facade(workload)
    awc.install(app.servlet_classes)
    try:
        server = AsyncCachedServer(app.container, cache=awc.cache)  # never started
        requests = generate(workload, 57, "closed", 4000)
        _replay(server, requests[:1000])  # plans, memos, first pages
        pages = node_store(awc).pages
        before = set(pages.keys())
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _replay(server, requests[1000:])
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        new = [entry for entry in pages.entries() if entry.key not in before]
        assert len(new) > 500
        assert len(pages) == len(before) + len(new)  # nothing left the cache
        overhead = (retained - sum(map(_page_bytes, new))) / len(new)
        server.shutdown()
    finally:
        awc.uninstall()
    assert overhead < OVERHEAD_BOUND, f"{overhead:.0f} B per resident page"
