"""Transaction-rollback invalidation: rolled-back writes invalidate nothing.

Regression tests for the over-invalidation bug: the JDBC consistency
aspect used to record write instances the moment ``execute_update``
returned, so a write issued inside an explicit transaction that was
later rolled back still doomed every dependent page -- evicting
perfectly fresh content.  Write instances observed while
``connection.in_transaction`` are now *staged* per connection, promoted
to real invalidation work by ``Connection.commit`` and discarded by
``Connection.rollback``.

The committed-path test doubles as the staleness oracle: a committed
transactional write must still invalidate exactly as an autocommit
write does, so the cached page never serves the pre-commit score.
"""

from __future__ import annotations

import pytest

from repro.cache.autowebcache import AutoWebCache
from repro.db import connect
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

from tests.conftest import ScoreNoteServlet, ViewNoteServlet, make_notes_db


class TxnScoreServlet(HttpServlet):
    """Write handler: updates a note's score inside an explicit
    transaction, then commits or rolls back per the ``outcome`` param."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_post(self, request: HttpRequest, response: HttpResponse) -> None:
        outcome = request.get_parameter("outcome")
        self._connection.begin()
        statement = self._connection.create_statement()
        statement.execute_update(
            "UPDATE notes SET score = ? WHERE id = ?",
            (
                int(request.get_parameter("score")),
                int(request.get_parameter("id")),
            ),
        )
        if outcome == "commit":
            self._connection.commit()
        else:
            self._connection.rollback()
        response.write(outcome)


class TxnPeekServlet(HttpServlet):
    """Read handler that *also* writes inside a transaction it rolls
    back -- the page it renders reflects only pre-transaction state, so
    it is safe to cache, but the rolled-back write must not linger."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        note_id = int(request.get_parameter("id"))
        self._connection.begin()
        statement = self._connection.create_statement()
        statement.execute_update(
            "UPDATE notes SET score = 999 WHERE id = ?", (note_id,)
        )
        self._connection.rollback()
        result = statement.execute_query(
            "SELECT body, score FROM notes WHERE id = ?", (note_id,)
        )
        result.next()
        response.write(f"<p>{result.get('body')}|{result.get('score')}</p>")


def _build_app():
    db = make_notes_db()
    db.execute(
        "INSERT INTO notes (id, topic, body, score) VALUES (?, ?, ?, ?)",
        (1, "tx", "hello", 5),
    )
    connection = connect(db)
    container = ServletContainer()
    container.register("/view_note", ViewNoteServlet(connection))
    container.register("/txn_score", TxnScoreServlet(connection))
    container.register("/txn_peek", TxnPeekServlet(connection))
    container.register("/score", ScoreNoteServlet(connection))
    return db, container


def _installed(awc):
    db, container = _build_app()
    awc.install(container.servlet_classes)
    try:
        yield db, container, awc
    finally:
        awc.uninstall()


@pytest.fixture
def txn_app():
    yield from _installed(AutoWebCache())


def test_rolled_back_write_invalidates_nothing(txn_app):
    _, container, awc = txn_app
    first = container.get("/view_note", {"id": "1"})
    assert "hello|5" in first.body
    assert len(awc.cache) == 1

    container.post(
        "/txn_score", {"id": "1", "score": "42", "outcome": "rollback"}
    )

    assert awc.stats.invalidated_pages == 0
    assert len(awc.cache) == 1
    again = container.get("/view_note", {"id": "1"})
    assert "hello|5" in again.body
    assert awc.stats.hits == 1  # served from cache, not re-rendered


def test_committed_write_still_invalidates(txn_app):
    _, container, awc = txn_app
    container.get("/view_note", {"id": "1"})
    assert len(awc.cache) == 1

    container.post(
        "/txn_score", {"id": "1", "score": "42", "outcome": "commit"}
    )

    assert awc.stats.invalidated_pages == 1
    assert len(awc.cache) == 0
    fresh = container.get("/view_note", {"id": "1"})
    assert "hello|42" in fresh.body  # no staleness through the cache


def test_rollback_then_commit_promotes_only_committed_writes(txn_app):
    """A rollback must not poison the connection: the *next* committed
    transaction on the same connection invalidates normally."""
    _, container, awc = txn_app
    container.get("/view_note", {"id": "1"})

    container.post(
        "/txn_score", {"id": "1", "score": "7", "outcome": "rollback"}
    )
    assert awc.stats.invalidated_pages == 0

    container.post(
        "/txn_score", {"id": "1", "score": "8", "outcome": "commit"}
    )
    assert awc.stats.invalidated_pages == 1
    assert "hello|8" in container.get("/view_note", {"id": "1"}).body


def test_read_context_transaction_rollback_aborts_caching(txn_app):
    """A read request that writes inside a transaction and rolls it
    back renders pre-transaction state -- cacheable in principle, but
    the protocol conservatively refuses to cache an aborted context."""
    _, container, awc = txn_app
    container.get("/view_note", {"id": "1"})  # a page the write would doom
    response = container.get("/txn_peek", {"id": "1"})
    assert "hello|5" in response.body  # rollback really undid the write
    assert len(awc.cache) == 1  # aborted context: the peek is never cached
    # ...and the undone write is not invalidation information either.
    assert awc.stats.invalidated_pages == 0
    assert awc.stats.write_requests == 0


def test_autocommit_write_unaffected_by_staging(txn_app):
    """Writes outside any transaction keep the original immediate-record
    path."""
    _, container, awc = txn_app
    container.get("/view_note", {"id": "1"})

    container.post("/score", {"id": "1", "score": "11"})
    assert awc.stats.invalidated_pages == 1
    assert "hello|11" in container.get("/view_note", {"id": "1"}).body


class TestOnTwoNodeRing:
    """The same tests on a two-node ring: the installer is
    shared, so ``Connection.commit``/``rollback`` are woven on a ring
    too.  (The cluster facade used to weave ``Statement`` only: staged
    writes were never discarded, and a rolled-back write doomed pages.)

    A class overriding the fixture rather than a parametrized fixture,
    so the single-node tests above keep their ids.
    """

    @pytest.fixture
    def txn_app(self):
        yield from _installed(AutoWebCache(n_nodes=2))

    test_rolled_back_write_invalidates_nothing = staticmethod(
        test_rolled_back_write_invalidates_nothing
    )
    test_committed_write_still_invalidates = staticmethod(
        test_committed_write_still_invalidates
    )
    test_rollback_then_commit_promotes_only_committed_writes = staticmethod(
        test_rollback_then_commit_promotes_only_committed_writes
    )
    test_read_context_transaction_rollback_aborts_caching = staticmethod(
        test_read_context_transaction_rollback_aborts_caching
    )
    test_autocommit_write_unaffected_by_staging = staticmethod(
        test_autocommit_write_unaffected_by_staging
    )
