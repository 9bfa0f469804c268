"""DB-API style driver: the JDBC analogue.

The paper's consistency aspect intercepts JDBC's ``executeQuery`` and
``executeUpdate`` calls (Figure 12).  This module provides the matching
well-known join points for our weaver:

- :meth:`Statement.execute_query` -- read path, returns a
  :class:`ResultSet`;
- :meth:`Statement.execute_update` -- write path, returns the affected
  row count.

Applications obtain a :class:`Connection` via :func:`connect` and create
:class:`Statement` objects from it, exactly mirroring the JDBC usage
pattern in servlet code.
"""

from __future__ import annotations

from repro.db.engine import Database
from repro.db.executor import QueryResult, UpdateResult
from repro.errors import DatabaseError


class ResultSet:
    """Forward-only cursor over a query result (JDBC ResultSet analogue)."""

    def __init__(self, result: QueryResult) -> None:
        self._result = result
        self._cursor = -1
        self._positions = {
            name.lower(): i for i, name in enumerate(result.columns)
        }

    @property
    def query_result(self) -> QueryResult:
        """The underlying immutable result (cursor-free); lets caching
        layers store one result and mint fresh ResultSets per consumer."""
        return self._result

    @property
    def columns(self) -> list[str]:
        return list(self._result.columns)

    @property
    def rows_examined(self) -> int:
        return self._result.rows_examined

    def __len__(self) -> int:
        return len(self._result.rows)

    def next(self) -> bool:
        """Advance to the next row; returns False past the end."""
        if self._cursor + 1 >= len(self._result.rows):
            return False
        self._cursor += 1
        return True

    def _current_row(self) -> tuple[object, ...]:
        if self._cursor < 0:
            raise DatabaseError("ResultSet.next() has not been called")
        return self._result.rows[self._cursor]

    def get(self, column: str) -> object:
        """Value of ``column`` in the current row."""
        try:
            position = self._positions[column.lower()]
        except KeyError:
            raise DatabaseError(f"no column {column!r} in result") from None
        return self._current_row()[position]

    def get_at(self, position: int) -> object:
        """Value at 0-based ``position`` in the current row."""
        return self._current_row()[position]

    def scalar(self) -> object:
        """First value of the first row (or None when empty)."""
        return self._result.scalar()

    def all_dicts(self) -> list[dict[str, object]]:
        """Every row as a column->value dictionary."""
        return self._result.dicts()


class Statement:
    """JDBC Statement analogue bound to one connection.

    ``execute_query`` / ``execute_update`` are the join points the
    :class:`~repro.cache.aspects.JdbcConsistencyAspect` weaves advice
    onto; keep their signatures stable.
    """

    def __init__(self, connection: "Connection") -> None:
        self._connection = connection
        #: Result of the last :meth:`execute_update` (None before one).
        self.last_update: UpdateResult | None = None

    @property
    def connection(self) -> "Connection":
        return self._connection

    def generated_key(self) -> object:
        """Primary key assigned by the last auto-increment INSERT
        (JDBC's getGeneratedKeys analogue)."""
        return None if self.last_update is None else self.last_update.last_insert_id

    def execute_query(
        self, sql: str, params: tuple[object, ...] = ()
    ) -> ResultSet:
        """Execute a SELECT and return a ResultSet."""
        result = self._connection.database.query(sql, params)
        return ResultSet(result)

    def execute_update(self, sql: str, params: tuple[object, ...] = ()) -> int:
        """Execute INSERT/UPDATE/DELETE and return the affected count."""
        result = self._connection.database.execute(sql, params)
        if isinstance(result, QueryResult):
            raise DatabaseError("execute_update() requires a write statement")
        self.last_update = result
        return result.affected

    def close(self) -> None:
        """Release the statement (no-op; symmetry with JDBC)."""


class Connection:
    """A lightweight handle on a :class:`Database` (JDBC Connection).

    Autocommit by default (matching the paper's MyISAM setup); call
    :meth:`begin` / :meth:`commit` / :meth:`rollback` for explicit
    transactions.  A rolled-back transaction leaves the database
    unchanged and suppresses the trigger events its writes would have
    produced.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._closed = False

    def create_statement(self) -> Statement:
        if self._closed:
            raise DatabaseError("connection is closed")
        return Statement(self)

    def begin(self) -> None:
        """Start a transaction (JDBC setAutoCommit(false) analogue)."""
        self.database.begin()

    def commit(self) -> None:
        self.database.commit()

    def rollback(self) -> None:
        self.database.rollback()

    @property
    def in_transaction(self) -> bool:
        return self.database.in_transaction

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def connect(database: Database) -> Connection:
    """Open a connection to ``database`` (the DriverManager analogue)."""
    return Connection(database)
