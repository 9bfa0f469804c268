"""Concurrent partial dooming: a write killing one fragment while
another fragment of the same page is mid-assembly.

The oracle is the TriggerInvalidationBridge contract from
tests/test_external_bridge_concurrency.py, applied per *fragment*: a
page assembles two fragments (one per note); direct database writers
raise each note's score and its committed floor; readers parse both
scores out of every assembled page and must never see either fragment
below its floor.  A page stitched from one fresh and one stale-beyond-
the-floor fragment -- the mixed-page hazard fragment caching introduces
-- fails this immediately.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.apps.html import fragment
from repro.cache.autowebcache import AutoWebCache
from repro.cache.external import TriggerInvalidationBridge
from repro.db import connect
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

from tests.conftest import AddNoteServlet, make_notes_db

N_NOTES = 2
N_READERS = 10
WRITES_PER_WRITER = 40
READS_PER_READER = 50


class PairServlet(HttpServlet):
    """One fragment per note: the partial-doom surface."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        response.write("<pair>")
        for note_id in range(1, N_NOTES + 1):
            fragment(
                response,
                "pair/note",
                {"id": str(note_id)},
                lambda note_id=note_id: self._write_note(response, note_id),
            )
        response.write("</pair>")

    def _write_note(self, response, note_id: int) -> None:
        statement = self._connection.create_statement()
        result = statement.execute_query(
            "SELECT score FROM notes WHERE id = ?", (note_id,)
        )
        if result.next():
            response.write(f"[{note_id}:{result.get('score')}]")


def build_pair_app():
    db = make_notes_db()
    connection = connect(db)
    container = ServletContainer()
    container.register("/pair", PairServlet(connection))
    container.register("/add", AddNoteServlet(connection))
    return db, container


def _parse_scores(body: str) -> dict[int, int]:
    # PairServlet renders "[id:score]" per fragment.
    scores: dict[int, int] = {}
    for chunk in body.split("[")[1:]:
        note_id, rest = chunk.split(":", 1)
        scores[int(note_id)] = int(rest.split("]", 1)[0])
    return scores


def _run_partial_doom_race(db, container, awc):
    for i in range(N_NOTES):
        response = container.post(
            "/add",
            {"id": str(i + 1), "topic": "pair", "body": f"n{i}", "score": "0"},
        )
        assert response.status == 200

    floor = {i + 1: 0 for i in range(N_NOTES)}
    floor_lock = threading.Lock()
    violations: list[str] = []
    errors: list[str] = []
    barrier = threading.Barrier(N_NOTES + N_READERS)

    def writer(note_id: int) -> None:
        try:
            barrier.wait(timeout=10)
            for value in range(1, WRITES_PER_WRITER + 1):
                # The trigger invalidates synchronously inside
                # update(): the doomed fragment AND every page whose
                # body embeds its text are gone before the floor rises.
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
            for _ in range(READS_PER_READER):
                with floor_lock:
                    committed = dict(floor)
                response = container.get("/pair")
                assert response.status == 200
                seen = _parse_scores(response.body)
                assert set(seen) == set(committed), response.body
                for note_id, value in seen.items():
                    if value < committed[note_id]:
                        violations.append(
                            f"note {note_id}: fragment showed {value}, "
                            f"floor was {committed[note_id]} "
                            f"(page: {response.body})"
                        )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"reader {index}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=writer, args=(i + 1,), daemon=True)
        for i in range(N_NOTES)
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
    assert violations == [], violations[:5]
    assert awc.cache.open_flights == 0


@pytest.mark.concurrency
def test_partial_fragment_doom_never_serves_mixed_page_single_node():
    db, container = build_pair_app()
    awc = AutoWebCache()
    TriggerInvalidationBridge(awc.cache, awc.collector).attach(db)
    awc.install(container.servlet_classes)
    try:
        _run_partial_doom_race(db, container, awc)
    finally:
        awc.uninstall()


@pytest.mark.concurrency
def test_partial_fragment_doom_never_serves_mixed_page_cluster():
    """Same oracle on a 4-node ring: the page and its two fragments
    hash to different shards, so the doom must climb the router-level
    containment closure before the writer's update() returns."""
    db, container = build_pair_app()
    awc = AutoWebCache(n_nodes=4)
    TriggerInvalidationBridge(awc.router, awc.collector).attach(db)
    awc.install(container.servlet_classes)
    try:
        _run_partial_doom_race(db, container, awc)
        for node in awc.router.nodes():
            assert node.last_applied_seq == awc.bus.seq
    finally:
        awc.uninstall()
