"""Row storage with hash indexes.

A :class:`Table` owns its rows (lists, positionally matching the schema)
and maintains a unique index on the primary key plus non-unique hash
indexes on declared index columns.  Rows are identified internally by a
monotonically increasing row id so updates/deletes can maintain indexes
incrementally.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from repro.db.schema import TableSchema
from repro.errors import IntegrityError


class Table:
    """Mutable storage for one table."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[int, list[object]] = {}
        self._next_rowid = 0
        self._pk_index: dict[object, int] = {}
        self._indexes: dict[str, dict[object, set[int]]] = {
            column: defaultdict(set) for column in schema.indexes
        }
        #: Next value handed out when a row arrives with a NULL integer
        #: primary key (the AUTO_INCREMENT analogue).
        self._auto_increment = 0
        #: Primary key assigned by the most recent insert.
        self.last_insert_id: object = None
        # Statistics consumed by the simulator's cost model.
        self.scan_count = 0
        self.index_lookup_count = 0

    def __len__(self) -> int:
        return len(self._rows)

    # -- reads ----------------------------------------------------------------

    def rows(self) -> Iterator[tuple[int, list[object]]]:
        """Iterate over (rowid, row) pairs; counts as a full scan."""
        self.scan_count += 1
        return iter(list(self._rows.items()))

    def scan(self) -> list[list[object]]:
        """Every row, in rowid order; counts as one full scan."""
        self.scan_count += 1
        return list(self._rows.values())

    def lookup_pk(self, value: object) -> tuple[int, list[object]] | None:
        """Point lookup via the primary-key index."""
        self.index_lookup_count += 1
        rowid = self._pk_index.get(value)
        if rowid is None:
            return None
        return rowid, self._rows[rowid]

    def lookup_index(self, column: str, value: object) -> list[tuple[int, list[object]]]:
        """Lookup via a secondary index; returns matching (rowid, row) pairs."""
        self.index_lookup_count += 1
        index = self._indexes[column]
        return [(rowid, self._rows[rowid]) for rowid in sorted(index.get(value, ()))]

    def index_size(self, column: str, value: object) -> int:
        """How many rows ``column = value`` selects through the primary
        key or an index, read off the index (no rows, no lookup counted)."""
        if column == self.schema.primary_key:
            return int(value in self._pk_index)
        return len(self._indexes[column].get(value, ()))

    def has_index(self, column: str) -> bool:
        return column in self._indexes

    @property
    def primary_key(self) -> str | None:
        return self.schema.primary_key

    # -- writes ---------------------------------------------------------------

    def insert(self, row: list[object]) -> int:
        """Insert ``row`` (positional, schema order); returns its rowid.

        A NULL primary key is auto-assigned the next increment value,
        mirroring MySQL AUTO_INCREMENT columns.
        """
        pk = self.schema.primary_key
        if pk is not None:
            position = self.schema.position(pk)
            key = row[position]
            if key is None:
                key = self._auto_increment
                row[position] = key
            if key in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.schema.name!r}"
                )
            if isinstance(key, int) and key >= self._auto_increment:
                self._auto_increment = key + 1
            self.last_insert_id = key
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        self._index_add(rowid, row)
        return rowid

    def update_row(self, rowid: int, new_row: list[object]) -> None:
        """Replace the row at ``rowid`` with ``new_row``."""
        old_row = self._rows[rowid]
        pk = self.schema.primary_key
        if pk is not None:
            position = self.schema.position(pk)
            old_key, new_key = old_row[position], new_row[position]
            if old_key != new_key and new_key in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {new_key!r} in table {self.schema.name!r}"
                )
        self._index_remove(rowid, old_row)
        self._rows[rowid] = new_row
        self._index_add(rowid, new_row)

    def delete_row(self, rowid: int) -> None:
        """Delete the row at ``rowid``."""
        row = self._rows.pop(rowid)
        self._index_remove(rowid, row)

    def clear(self) -> None:
        """Remove every row (keeps schema and counters)."""
        self._rows.clear()
        self._pk_index.clear()
        for index in self._indexes.values():
            index.clear()

    # -- index maintenance ------------------------------------------------------

    def _index_add(self, rowid: int, row: list[object]) -> None:
        pk = self.schema.primary_key
        if pk is not None:
            self._pk_index[row[self.schema.position(pk)]] = rowid
        for column, index in self._indexes.items():
            index[row[self.schema.position(column)]].add(rowid)

    def _index_remove(self, rowid: int, row: list[object]) -> None:
        pk = self.schema.primary_key
        if pk is not None:
            self._pk_index.pop(row[self.schema.position(pk)], None)
        for column, index in self._indexes.items():
            bucket = index.get(row[self.schema.position(column)])
            if bucket is not None:
                bucket.discard(rowid)
                if not bucket:
                    del index[row[self.schema.position(column)]]
