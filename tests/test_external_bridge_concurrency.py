"""Direct-database writes racing woven requests (Section 8's escape
hatch under contention).

A maintenance script updating rows behind the woven application's back
is the nastiest consistency case: no aspect sees the write, only the
database trigger does.  These tests hammer that path with real threads
and assert the strong-consistency contract holds -- zero stale serves
against a committed-writes floor -- and that the bridge's accounting is
*exact*: every direct write counted once, no woven write miscounted as
external.
"""

import sys
import threading

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.cache.external import TriggerInvalidationBridge

from tests.conftest import build_notes_app

N_WRITERS = 4
N_READERS = 12
WRITES_PER_WRITER = 40
READS_PER_READER = 60


def _parse_score(body: str) -> int:
    # ViewNoteServlet renders "<p>{body}|{score}</p>".
    return int(body.split("|")[1].split("<")[0])


def _run_bridge_race(db, container, awc, bridge):
    """Writers bypass the woven app; readers must never see a score
    below the committed floor for that note."""
    for i in range(N_WRITERS):
        response = container.post(
            "/add",
            {"id": str(i + 1), "topic": "race", "body": f"n{i}", "score": "0"},
        )
        assert response.status == 200

    floor = {i + 1: 0 for i in range(N_WRITERS)}
    floor_lock = threading.Lock()
    violations: list[str] = []
    errors: list[str] = []
    barrier = threading.Barrier(N_WRITERS + N_READERS)

    def writer(note_id: int) -> None:
        try:
            barrier.wait(timeout=10)
            for value in range(1, WRITES_PER_WRITER + 1):
                # The trigger fires (and invalidates) synchronously
                # inside update(), so by the time the floor is raised
                # the stale page is already gone cluster-wide.
                db.update(
                    "UPDATE notes SET score = ? WHERE id = ?", (value, note_id)
                )
                with floor_lock:
                    floor[note_id] = value
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"writer {note_id}: {type(exc).__name__}: {exc}")

    def reader(index: int) -> None:
        try:
            barrier.wait(timeout=10)
            for iteration in range(READS_PER_READER):
                note_id = (index + iteration) % N_WRITERS + 1
                with floor_lock:
                    committed = floor[note_id]
                response = container.get("/view_note", {"id": str(note_id)})
                assert response.status == 200
                seen = _parse_score(response.body)
                if seen < committed:
                    violations.append(
                        f"note {note_id}: saw {seen}, floor was {committed}"
                    )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"reader {index}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=writer, args=(i + 1,), daemon=True)
        for i in range(N_WRITERS)
    ] + [
        threading.Thread(target=reader, args=(i,), daemon=True)
        for i in range(N_READERS)
    ]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads), "stress hung"
    assert errors == []
    assert violations == [], violations

    # Exact accounting: every direct write seen once, and the woven
    # /add posts were *not* routed through the external path.
    assert bridge.external_writes == N_WRITERS * WRITES_PER_WRITER
    assert bridge.skipped_in_request == N_WRITERS  # the /add posts
    assert awc.stats.write_requests >= N_WRITERS * WRITES_PER_WRITER
    assert awc.cache.open_flights == 0


@pytest.mark.concurrency
def test_direct_writes_racing_woven_reads_single_node():
    db, container = build_notes_app()
    awc = AutoWebCache()
    bridge = TriggerInvalidationBridge(awc.cache, awc.collector).attach(db)
    awc.install(container.servlet_classes)
    try:
        _run_bridge_race(db, container, awc, bridge)
    finally:
        awc.uninstall()


@pytest.mark.concurrency
def test_direct_writes_racing_woven_reads_cluster():
    """Same oracle against a 3-node cluster: the bridge publishes on
    the invalidation bus, so the doomed page dies on whichever shard
    owns it before the writer's update() returns."""
    db, container = build_notes_app()
    awc = AutoWebCache(n_nodes=3)
    bridge = TriggerInvalidationBridge(awc.router, awc.collector).attach(db)
    awc.install(container.servlet_classes)
    try:
        _run_bridge_race(db, container, awc, bridge)
        seq = awc.bus.seq
        assert seq >= N_WRITERS * WRITES_PER_WRITER
        for node in awc.router.nodes():
            assert node.last_applied_seq == seq
    finally:
        awc.uninstall()
