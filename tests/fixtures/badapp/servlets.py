"""Seeded cacheability violations (RC01..RC04, RC06).

Each servlet below carries exactly one deliberate defect; GoodServlet is
clean and exists as the join point two rival aspects fight over (PC03),
OrphanServlet is clean but deliberately outside the caching pointcut's
type pattern (PC02).  StampingWriter seeds RC06: its do_post
updates a column (``items.audit_stamp``) that no registered read
template's lineage read set contains, so the write dooms nothing.
"""

from __future__ import annotations

import random

from repro.db.dbapi import Connection, Statement
from repro.db.engine import Database
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet


class BadServlet(HttpServlet):
    """Shared base: holds the connection, mirrors RubisServlet."""

    def __init__(self, connection: Connection) -> None:
        self._connection = connection

    def statement(self) -> Statement:
        return self._connection.create_statement()


class AuditedCounter(BadServlet):
    """RC01: a cacheable do_get that writes a hit counter."""

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        statement = self.statement()
        statement.execute_update(
            "UPDATE page_hits SET hits = hits + 1 WHERE page = ?",
            ("counter",),
        )
        result = statement.execute_query(
            "SELECT hits FROM page_hits WHERE page = ?", ("counter",)
        )
        result.next()
        response.write(f"<p>{result.scalar()} visits so far</p>")


class LuckyNumber(BadServlet):
    """RC02: entropy (random) rendered into a cacheable body."""

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        draw = random.randrange(100)
        response.write(f"<p>Your lucky number today is {draw}.</p>")


class BackdoorReader(BadServlet):
    """RC03: queries the engine directly, bypassing the woven driver."""

    def __init__(self, connection: Connection, database: Database) -> None:
        super().__init__(connection)
        self._database = database

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        rows = self._database.query("SELECT id, name FROM categories")
        response.write(f"<p>{len(rows.rows)} categories (uncounted!)</p>")


class ScanHeavy(BadServlet):
    """RC04: a read template with no equality-bound position."""

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        statement = self.statement()
        result = statement.execute_query(
            "SELECT id, name FROM categories ORDER BY name"
        )
        while result.next():
            response.write(f"<li>{result.get('name')}</li>")


class GoodServlet(BadServlet):
    """Clean servlet; the PC03 pair both advise its do_get."""

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        statement = self.statement()
        result = statement.execute_query(
            "SELECT name FROM categories WHERE id = ?", ("1",)
        )
        result.next()
        response.write(f"<p>Category: {result.get('name')}</p>")


class OrphanServlet(HttpServlet):
    """PC02: a registered handler the caching pointcut never matches.

    Deliberately NOT a BadServlet subclass -- the caching aspect's
    ``execution(BadServlet+.do_get(..))`` type pattern cannot see it.
    """

    def __init__(self, connection: Connection) -> None:
        self._connection = connection

    def statement(self) -> Statement:
        return self._connection.create_statement()

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        statement = self.statement()
        result = statement.execute_query(
            "SELECT name FROM regions WHERE id = ?", ("1",)
        )
        result.next()
        response.write(f"<p>Region: {result.get('name')}</p>")


class StampingWriter(BadServlet):
    """RC06: a do_post UPDATE whose SET column no read ever observes.

    ``audit_stamp`` is in the catalog (so lineage is exact about it) but
    in no registered template's read set -- the write invalidates
    nothing, which is exactly what the dead-write rule reports.
    """

    def do_post(self, request: HttpRequest, response: HttpResponse) -> None:
        statement = self.statement()
        statement.execute_update(
            "UPDATE items SET audit_stamp = ? WHERE id = ?",
            ("now", request.get_parameter("id")),
        )
        response.write("<p>stamped</p>")
