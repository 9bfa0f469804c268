"""The :class:`Database`: schema registry + statement execution.

A :class:`Database` owns the tables and a bounded *plan cache*, and
exposes ``query``/``update`` entry points taking SQL text plus
positional parameters -- the same shape the DB-API driver and, above it,
the JDBC-style interface use.

**The plan cache.**  One dict holds, per statement, its parsed AST and
the plan :meth:`Executor.compile` built from it.  ``execute(sql)`` finds
the entry by statement *text*; ``execute_statement(ast)`` finds it by
the AST's *identity* (``execute`` hands in the AST its text's entry
holds, and hashing a frozen dataclass tree per call would cost what
compiling saves).  A text is parsed at most
once while its entry is resident; a plan is compiled lazily, at first
execution, and again only after the *schema epoch* moved -- every
``create_table`` / ``drop_table`` bumps it, because plans bake in table
objects, column positions and index choices.  Row changes (including a
rollback, which refills tables in place) never invalidate a plan.  The
cache holds at most :data:`_PLAN_LIMIT` keys and is emptied when full
(the policy of :mod:`repro.sql.template`'s prepare memo), so
applications that spell literals inline cannot grow it without bound.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.db.executor import Executor, QueryResult, UpdateResult
from repro.db.schema import Column, ColumnType, TableSchema
from repro.db.storage import Table
from repro.db.transactions import Transaction
from repro.db.triggers import TriggerSet, WriteEvent
from repro.errors import DatabaseError, ExecutionError, SchemaError
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement


@dataclass
class DatabaseStats:
    """Cumulative work counters, consumed by the simulator's cost model."""

    queries: int = 0
    updates: int = 0
    rows_examined: int = 0
    rows_returned: int = 0

    def snapshot(self) -> "DatabaseStats":
        return DatabaseStats(
            queries=self.queries,
            updates=self.updates,
            rows_examined=self.rows_examined,
            rows_returned=self.rows_returned,
        )


_WRITE_KINDS = {ast.Insert: "insert", ast.Update: "update", ast.Delete: "delete"}
#: Most keys (statement texts + AST identities) the plan cache holds.
_PLAN_LIMIT = 1024


class _Plan:
    """One plan-cache entry: a statement and its lazily compiled plan."""

    __slots__ = ("statement", "epoch", "run")

    def __init__(self, statement: ast.Statement) -> None:
        self.statement = statement
        #: Schema epoch ``run`` was compiled at (None: not compiled yet).
        self.epoch: int | None = None
        self.run: Callable[[tuple], QueryResult | UpdateResult] | None = None


class Database:
    """An in-memory multi-table database."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._executor = Executor(self._tables)
        #: statement text | id(statement) -> entry (see module docstring).
        self._plans: dict[str | int, _Plan] = {}
        self._schema_epoch = 0
        self._lock = threading.RLock()
        self.stats = DatabaseStats()
        #: After-write triggers (Section 8's external-update hook).
        self.triggers = TriggerSet()
        self._transaction: Transaction | None = None

    # -- schema -----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Register ``schema`` and return its (empty) table."""
        with self._lock:
            if schema.name in self._tables:
                raise SchemaError(f"table {schema.name!r} already exists")
            table = Table(schema)
            self._tables[schema.name] = table
            self._schema_epoch += 1
            return table

    def drop_table(self, name: str) -> None:
        with self._lock:
            if name.lower() not in self._tables:
                raise SchemaError(f"unknown table {name!r}")
            del self._tables[name.lower()]
            self._schema_epoch += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    @property
    def schema_epoch(self) -> int:
        """Moves with every ``create_table`` / ``drop_table``: whoever
        derived something from the schemas compares this to know it is
        still current (the plan cache here, the cache's catalog mirror)."""
        return self._schema_epoch

    # -- execution ----------------------------------------------------------------

    def execute(
        self, sql: str, params: tuple[object, ...] = ()
    ) -> QueryResult | UpdateResult:
        """Parse and compile (both cached) and execute one statement."""
        return self.execute_statement(self._parse(sql), params)

    def execute_statement(
        self, statement: ast.Statement, params: tuple[object, ...] = ()
    ) -> QueryResult | UpdateResult:
        with self._lock:
            if isinstance(statement, ast.Select):
                result = self._plan(statement).run(params)
                self.stats.queries += 1
                self.stats.rows_examined += result.rows_examined
                self.stats.rows_returned += len(result.rows)
                return result
            if isinstance(statement, ast.CreateTable):
                if self._transaction is not None:
                    raise DatabaseError("DDL inside a transaction")
                self.create_table(_schema_from_ast(statement))
                return UpdateResult(affected=0, rows_examined=0)
            kind = _WRITE_KINDS.get(type(statement))
            if kind is None:
                raise ExecutionError(
                    f"cannot execute {type(statement).__name__}"
                )
            table = statement.table.lower()
            if self._transaction is not None:
                self._transaction.snapshot_table(table, self.table(table))
            update = self._plan(statement).run(params)
            self.stats.updates += 1
            self.stats.rows_examined += update.rows_examined
            if not self.triggers.empty:
                event = WriteEvent(
                    table=table,
                    kind=kind,
                    sql=statement.unparse(),
                    params=tuple(params),
                    affected=update.affected,
                    pre_image=update.image(),
                )
                if self._transaction is not None:
                    # Deliver only if the transaction commits.
                    self._transaction.deferred_events.append(event)
                else:
                    self.triggers.fire(event)
            return update

    # -- transactions -----------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None

    def begin(self) -> None:
        """Open a transaction (one at a time; see transactions module)."""
        with self._lock:
            if self._transaction is not None:
                raise DatabaseError("a transaction is already open")
            self._transaction = Transaction()

    def commit(self) -> None:
        """Commit: keep all changes, deliver deferred trigger events."""
        with self._lock:
            if self._transaction is None:
                raise DatabaseError("no open transaction")
            events = self._transaction.commit()
            self._transaction = None
        for event in events:
            self.triggers.fire(event)

    def rollback(self) -> None:
        """Roll back: restore every written table, drop trigger events."""
        with self._lock:
            if self._transaction is None:
                raise DatabaseError("no open transaction")
            self._transaction.rollback_into(self._tables)
            self._transaction = None

    def query(self, sql: str, params: tuple[object, ...] = ()) -> QueryResult:
        """Execute a read statement; raises if ``sql`` is not a SELECT."""
        result = self.execute(sql, params)
        if not isinstance(result, QueryResult):
            raise ExecutionError("query() requires a SELECT statement")
        return result

    def update(self, sql: str, params: tuple[object, ...] = ()) -> int:
        """Execute a write statement; returns the affected row count."""
        result = self.execute(sql, params)
        if not isinstance(result, UpdateResult):
            raise ExecutionError("update() requires a write statement")
        return result.affected

    def explain(self, sql: str, params: tuple[object, ...] = ()) -> list[str]:
        """Access-path plan for a SELECT (executes it; reads are pure).

        Each entry is ``"<binding>: <path>"``, one per step in the order
        the plan runs them, with path one of ``primary key <col>``,
        ``index eq <col>``, ``index join on <col>``, ``INNER/LEFT join
        ...``, or ``full scan``; ``[pin-first]`` tags the table that
        drives the loop instead of the first FROM table when that
        rewrite rule fired.
        """
        statement = self._parse(sql)
        if not isinstance(statement, ast.Select):
            raise ExecutionError("explain() requires a SELECT statement")
        with self._lock:
            self._plan(statement).run(params)
            return list(self._executor.last_plan)

    def _parse(self, sql: str) -> ast.Statement:
        """The AST of ``sql``, parsed at most once while it is resident."""
        plan = self._plans.get(sql)
        if plan is None:
            with self._lock:
                plan = self._plans.get(sql)
                if plan is None:
                    plan = _Plan(parse_statement(sql))
                    self._admit(plan, sql, id(plan.statement))
        return plan.statement

    def _plan(self, statement: ast.Statement) -> _Plan:
        """The entry for ``statement``, compiled against today's schemas.

        Called with the lock held.  The entry keeps its statement alive,
        so an ``id`` cannot be recycled while it is a key.
        """
        plan = self._plans.get(id(statement))
        if plan is None or plan.statement is not statement:
            plan = _Plan(statement)
            self._admit(plan, id(statement))
        if plan.epoch != self._schema_epoch:
            plan.run = self._executor.compile(statement)
            plan.epoch = self._schema_epoch
        return plan

    def _admit(self, plan: _Plan, *keys: str | int) -> None:
        if len(self._plans) + len(keys) > _PLAN_LIMIT:
            self._plans.clear()
        for key in keys:
            self._plans[key] = plan

    # -- bulk load ------------------------------------------------------------------

    def insert_rows(self, table_name: str, rows: list[dict[str, object]]) -> int:
        """Bulk-insert dictionaries into ``table_name`` (bypasses SQL)."""
        table = self.table(table_name)
        for values in rows:
            table.insert(table.schema.coerce_row(values))
        return len(rows)


def _schema_from_ast(create: ast.CreateTable) -> TableSchema:
    """Convert a CREATE TABLE AST into a TableSchema."""
    type_map = {
        "INT": ColumnType.INT,
        "INTEGER": ColumnType.INT,
        "FLOAT": ColumnType.FLOAT,
        "VARCHAR": ColumnType.VARCHAR,
        "DATETIME": ColumnType.DATETIME,
        "TEXT": ColumnType.TEXT,
    }
    columns = []
    primary_key = None
    for col in create.columns:
        columns.append(Column(name=col.name, type=type_map[col.type_name]))
        if col.primary_key:
            primary_key = col.name
    return TableSchema(table_name_or_raise(create.table), columns, primary_key)


def table_name_or_raise(name: str) -> str:
    if not name:
        raise SchemaError("empty table name")
    return name
