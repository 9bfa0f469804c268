"""StatementInfo extraction tests: read/write sets and bindings."""

import pytest

from repro.sql.analysis_info import extract_info
from repro.sql.lineage import Catalog
from repro.sql.parser import parse_statement
from repro.sql.template import templateize


def info_of(sql, params=None, catalog=None):
    template, _values = templateize(sql, params)
    return extract_info(template.statement, catalog)


class TestSelectInfo:
    def test_tables_and_columns(self):
        info = info_of("SELECT a, b FROM t WHERE c = 1")
        assert info.tables == {"t"}
        assert ("t", "a") in info.columns_read
        assert ("t", "c") in info.columns_read
        assert info.is_read

    def test_star_projection(self):
        info = info_of("SELECT * FROM t")
        assert ("t", "*") in info.columns_read

    def test_where_equality_bindings(self):
        info = info_of("SELECT a FROM t WHERE b = 5 AND c = 'x'")
        bindings = {(b.table, b.column, b.value_index) for b in info.equality_bindings}
        assert ("t", "b", 0) in bindings
        assert ("t", "c", 1) in bindings
        assert info.where_is_conjunctive_equality

    def test_or_breaks_conjunctivity(self):
        info = info_of("SELECT a FROM t WHERE b = 1 OR c = 2")
        assert not info.where_is_conjunctive_equality

    def test_inequality_breaks_conjunctivity(self):
        info = info_of("SELECT a FROM t WHERE b > 1")
        assert not info.where_is_conjunctive_equality

    def test_join_predicate_keeps_conjunctivity(self):
        info = info_of(
            "SELECT t.a FROM t, u WHERE t.id = u.tid AND t.b = 4"
        )
        assert info.where_is_conjunctive_equality
        assert info.binding_for("t", "b") is not None

    def test_multi_table_unqualified_column_is_unknown(self):
        info = info_of("SELECT a FROM t, u WHERE t.id = u.id")
        assert ("?", "a") in info.columns_read

    def test_alias_resolution(self):
        info = info_of("SELECT x.a FROM t AS x WHERE x.b = 1")
        assert info.tables == {"t"}
        assert ("t", "a") in info.columns_read
        assert info.binding_for("t", "b") is not None

    def test_order_group_columns_counted_as_read(self):
        info = info_of("SELECT a FROM t GROUP BY b ORDER BY a")
        assert ("t", "b") in info.columns_read


class TestWriteInfo:
    def test_update_written_columns(self):
        info = info_of("UPDATE t SET a = 1, b = 2 WHERE id = 3")
        assert info.columns_written == {("t", "a"), ("t", "b")}
        assert info.write_table == "t"
        assert info.is_write

    def test_update_where_binding(self):
        info = info_of("UPDATE t SET a = 1 WHERE id = 3")
        binding = info.binding_for("t", "id")
        assert binding is not None
        # values = (1, 3): the WHERE value is index 1
        assert binding.value_index == 1

    def test_update_set_binding_also_recorded(self):
        info = info_of("UPDATE t SET a = 1 WHERE id = 3")
        assert info.binding_for("t", "a") is not None

    def test_insert_bindings(self):
        info = info_of("INSERT INTO t (a, b) VALUES (1, 'x')")
        assert info.columns_written == {("t", "a"), ("t", "b")}
        assert info.binding_for("t", "a").value_index == 0
        assert info.binding_for("t", "b").value_index == 1

    def test_delete_writes_star(self):
        info = info_of("DELETE FROM t WHERE id = 9")
        assert info.columns_written == {("t", "*")}
        assert info.binding_for("t", "id") is not None

    def test_delete_without_where(self):
        info = info_of("DELETE FROM t")
        assert info.where_columns == frozenset()
        assert info.where_is_conjunctive_equality

    def test_binding_resolve_literal(self):
        info = extract_info(parse_statement("UPDATE t SET a = 2 WHERE b = 7"))
        binding = info.binding_for("t", "b")
        assert binding.resolve(()) == 7

    def test_binding_resolve_placeholder(self):
        info = info_of("UPDATE t SET a = ? WHERE b = ?", (2, 7))
        binding = info.binding_for("t", "b")
        assert binding.resolve((2, 7)) == 7


class TestSchemaAwareResolution:
    """Unqualified columns in multi-table reads: the catalog attributes
    a column to its unique owner, and refuses when ownership is shared
    or any referenced table's schema is unknown."""

    CATALOG = Catalog(
        {
            "items": ("id", "name", "price"),
            "bids": ("id", "item_id", "amount"),
        }
    )

    def test_unique_owner_resolves(self):
        info = info_of(
            "SELECT amount FROM items, bids WHERE items.id = bids.item_id",
            catalog=self.CATALOG,
        )
        assert ("bids", "amount") in info.columns_read
        assert ("?", "amount") not in info.columns_read

    def test_shared_column_stays_unknown(self):
        # "id" exists on both tables: attribution would be a guess.
        info = info_of(
            "SELECT id FROM items, bids WHERE items.name = bids.amount",
            catalog=self.CATALOG,
        )
        assert ("?", "id") in info.columns_read
        assert ("items", "id") not in info.columns_read
        assert ("bids", "id") not in info.columns_read

    def test_unknown_table_blocks_resolution(self):
        # "amount" is unique among *known* schemas, but the mystery
        # table might also have it: no claim without full knowledge.
        info = info_of(
            "SELECT amount FROM bids, mystery WHERE bids.id = mystery.bid_id",
            catalog=self.CATALOG,
        )
        assert ("?", "amount") in info.columns_read

    def test_column_on_no_known_table_stays_unknown(self):
        info = info_of(
            "SELECT ghost FROM items, bids WHERE items.id = bids.item_id",
            catalog=self.CATALOG,
        )
        assert ("?", "ghost") in info.columns_read

    def test_single_table_needs_no_catalog(self):
        info = info_of("SELECT amount FROM bids")
        assert ("bids", "amount") in info.columns_read

    def test_alias_does_not_confuse_resolution(self):
        info = info_of(
            "SELECT amount FROM items AS i, bids AS b WHERE i.id = b.item_id",
            catalog=self.CATALOG,
        )
        assert ("bids", "amount") in info.columns_read


class TestFilterColumnsAndKeyPositions:
    """What decides a read's rows and order, and where it shows each
    table's key (the row-witness eligibility)."""

    CATALOG = Catalog(
        {
            "items": ("id", "name", "category", "seller", "price"),
            "users": ("id", "region", "nickname"),
            "bids": ("item_id", "user_id", "amount"),
        },
        {"items": "id", "users": "id"},
    )

    def info(self, sql):
        return info_of(sql, (0,) * sql.count("?"), catalog=self.CATALOG)

    def test_filter_columns_cover_where_join_order_and_aggregates(self):
        info = self.info(
            "SELECT items.id, items.name FROM items JOIN users "
            "ON items.seller = users.id WHERE users.region = ? "
            "ORDER BY items.price"
        )
        assert info.filter_columns == {
            ("items", "seller"), ("users", "id"), ("users", "region"),
            ("items", "price"),
        }
        grouped = self.info(
            "SELECT category, MAX(price) FROM items GROUP BY category "
            "HAVING COUNT(*) > ?"
        )
        assert {("items", "category"), ("items", "price")} <= grouped.filter_columns

    def test_an_order_by_alias_resolves_to_its_expression(self):
        info = self.info("SELECT id, price AS p FROM items ORDER BY p")
        assert ("items", "price") in info.filter_columns

    def test_key_positions_of_a_join(self):
        info = self.info(
            "SELECT users.nickname, items.id, users.id FROM items, users "
            "WHERE items.seller = users.id AND items.category = ?"
        )
        assert info.key_positions == (("items", 1), ("users", 2))

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id, COUNT(*) FROM items GROUP BY id",
            "SELECT MAX(id) FROM items",
            "SELECT id, MAX(price) FROM items WHERE category = ?",
            "SELECT id FROM items WHERE seller IN (SELECT id FROM users)",
            "SELECT items.id FROM items LEFT JOIN bids ON items.id = bids.item_id",
            "SELECT a.id FROM items a, items b WHERE a.seller = b.id",
            "SELECT *, id FROM items",
            "SELECT items.id FROM items, users WHERE nickname = id",
        ],
        ids=["group", "aggregate", "aggregate-beside-key", "subquery", "left-join", "self-join", "star",
             "spill"],
    )
    def test_no_witness_for_these_shapes(self, sql):
        assert self.info(sql).key_positions == ()

    def test_no_witness_without_a_known_key(self):
        assert info_of("SELECT id FROM items").key_positions == ()
        keyless = Catalog({"items": ("id",)})
        assert info_of("SELECT id FROM items", catalog=keyless).key_positions == ()
