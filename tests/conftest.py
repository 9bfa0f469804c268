"""Shared fixtures.

Weaving mutates classes globally, so every fixture that installs
AutoWebCache guarantees uninstallation, and an autouse fixture asserts
no woven methods leak between tests.  The suite runs with the lock-order
check on (``REPRO_LOCKWATCH=1`` unless the environment says otherwise).
"""

from __future__ import annotations

import os

import pytest

from repro.cache.analysis import QueryAnalysisEngine
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.api import Cache
from repro.cache.autowebcache import AutoWebCache
from repro.db import Column, ColumnType, Database, TableSchema, connect
from repro.db.dbapi import Connection, Statement
from repro.locks import VIOLATIONS, NamedRLock
from repro.web.container import ServletContainer
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

# Every lock the suite builds checks its rank at acquire (repro.locks):
# the choice is made when a lock is constructed, and none is built at
# import time.
os.environ.setdefault("REPRO_LOCKWATCH", "1")


@pytest.fixture(scope="session", autouse=True)
def lock_order_holds():
    """Fail the session if any checked lock refused an out-of-order
    acquire, including on a thread whose exception was swallowed."""
    yield
    assert not VIOLATIONS, "lock-order violations:\n" + "\n".join(VIOLATIONS)


@pytest.fixture(autouse=True)
def no_woven_leaks():
    """Fail loudly if a test leaves the shared Statement class woven."""
    yield
    for name in ("execute_query", "execute_update"):
        method = vars(Statement).get(name)
        assert not getattr(method, "__aw_woven__", False), (
            f"Statement.{name} left woven by a test"
        )
    for name in ("commit", "rollback"):
        method = vars(Connection).get(name)
        assert not getattr(method, "__aw_woven__", False), (
            f"Connection.{name} left woven by a test"
        )


def make_notes_db() -> Database:
    """A tiny two-table database used across cache tests."""
    db = Database("notes")
    db.create_table(
        TableSchema(
            "notes",
            [
                Column("id", ColumnType.INT),
                Column("topic", ColumnType.VARCHAR),
                Column("body", ColumnType.VARCHAR),
                Column("score", ColumnType.INT),
            ],
            primary_key="id",
            indexes=["topic"],
        )
    )
    db.create_table(
        TableSchema(
            "topics",
            [
                Column("id", ColumnType.INT),
                Column("name", ColumnType.VARCHAR),
            ],
            primary_key="id",
        )
    )
    return db


class ViewTopicServlet(HttpServlet):
    """Read handler: renders every note under a topic."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        topic = request.get_parameter("topic")
        statement = self._connection.create_statement()
        result = statement.execute_query(
            "SELECT id, body, score FROM notes WHERE topic = ? ORDER BY id",
            (topic,),
        )
        response.write(f"<h1>{topic}</h1>")
        while result.next():
            response.write(
                f"<p>{result.get('id')}:{result.get('body')}"
                f"({result.get('score')})</p>"
            )


class ViewNoteServlet(HttpServlet):
    """Read handler: renders a single note by id."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        note_id = int(request.get_parameter("id"))
        statement = self._connection.create_statement()
        result = statement.execute_query(
            "SELECT body, score FROM notes WHERE id = ?", (note_id,)
        )
        if result.next():
            response.write(f"<p>{result.get('body')}|{result.get('score')}</p>")
        else:
            response.write("<p>gone</p>")


class AddNoteServlet(HttpServlet):
    """Write handler: inserts a note."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_post(self, request: HttpRequest, response: HttpResponse) -> None:
        statement = self._connection.create_statement()
        statement.execute_update(
            "INSERT INTO notes (id, topic, body, score) VALUES (?, ?, ?, ?)",
            (
                int(request.get_parameter("id")),
                request.get_parameter("topic"),
                request.get_parameter("body"),
                int(request.get_parameter("score", "0")),
            ),
        )
        response.write("added")


class ScoreNoteServlet(HttpServlet):
    """Write handler: updates one note's score."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_post(self, request: HttpRequest, response: HttpResponse) -> None:
        statement = self._connection.create_statement()
        statement.execute_update(
            "UPDATE notes SET score = ? WHERE id = ?",
            (
                int(request.get_parameter("score")),
                int(request.get_parameter("id")),
            ),
        )
        response.write("scored")


class DeleteNoteServlet(HttpServlet):
    """Write handler: deletes one note."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_post(self, request: HttpRequest, response: HttpResponse) -> None:
        statement = self._connection.create_statement()
        statement.execute_update(
            "DELETE FROM notes WHERE id = ?",
            (int(request.get_parameter("id")),),
        )
        response.write("deleted")


NOTES_SERVLETS = (
    ViewTopicServlet,
    ViewNoteServlet,
    AddNoteServlet,
    ScoreNoteServlet,
    DeleteNoteServlet,
)


def build_notes_app() -> tuple[Database, ServletContainer]:
    """Assemble the notes mini-application (no cache installed)."""
    db = make_notes_db()
    connection = connect(db)
    container = ServletContainer()
    container.register("/view_topic", ViewTopicServlet(connection))
    container.register("/view_note", ViewNoteServlet(connection))
    container.register("/add", AddNoteServlet(connection))
    container.register("/score", ScoreNoteServlet(connection))
    container.register("/delete", DeleteNoteServlet(connection))
    return db, container


@pytest.fixture
def notes_app():
    """(database, container) for the notes mini-application."""
    return build_notes_app()


@pytest.fixture
def cached_notes_app():
    """(database, container, awc) with AutoWebCache installed; always
    uninstalls afterwards."""
    db, container = build_notes_app()
    awc = AutoWebCache()
    awc.install(container.servlet_classes)
    try:
        yield db, container, awc
    finally:
        awc.uninstall()


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Replace ``owner.name`` with a counting pass-through."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def lock_rounds(monkeypatch) -> list[int]:
    """Running count of ``NamedRLock`` acquisitions, reentrant ones
    included (reset it to 0 before the part being counted).  Every lock
    round in ``src/`` is a ``with`` statement, so this counts
    ``__enter__`` on the class the facade's lock actually is (the C
    lock or its order-checked subclass)."""
    return count_calls(monkeypatch, type(NamedRLock("cache-facade")), "__enter__")


def bare_store(**options) -> Cache:
    """A node store outside any ring, with an analysis stack of its own
    (a ring's nodes share the router's)."""
    return Cache(AnalysisCache(QueryAnalysisEngine()), **options)


def node_store(awc):
    """The :class:`~repro.cache.api.Cache` of a one-node facade: the
    node's page store, flights and lock, which the facade routes to."""
    (node,) = awc.router.nodes()
    return node.cache
