"""Column-lineage tests: the Catalog, compute_lineage's read sets, the
catalog-free invariant, and the monotone-widening soundness property."""

from __future__ import annotations

import random

from repro.sql.analysis_info import extract_info
from repro.sql.lineage import Catalog, LineageInfo, compute_lineage
from repro.sql.template import templateize


def stmt_of(sql, params=None):
    template, _values = templateize(sql, params)
    return template.statement


CATALOG = Catalog(
    {
        "items": ("id", "name", "seller", "price", "audit_stamp"),
        "bids": ("id", "item_id", "bidder", "amount"),
        "users": ("id", "nickname", "region"),
    }
)


class TestCatalog:
    def test_lookup_is_case_insensitive(self):
        catalog = Catalog({"Items": ("Id", "Name")})
        assert catalog.columns_of("ITEMS") == {"id", "name"}

    def test_unknown_table_is_none(self):
        assert CATALOG.columns_of("nope") is None

    def test_merge_unions_and_other_wins(self):
        merged = Catalog({"t": ("a",)}).merge(Catalog({"t": ("b",), "u": ("c",)}))
        assert merged.columns_of("t") == {"b"}
        assert merged.columns_of("u") == {"c"}
        assert len(merged) == 2

    def test_tables_property(self):
        assert CATALOG.tables == {"items", "bids", "users"}

    def test_primary_keys(self):
        catalog = Catalog({"Items": ("Id", "Name"), "tags": ("t",)}, {"Items": "Id"})
        assert catalog.primary_key_of("ITEMS") == "id"
        assert catalog.primary_key_of("tags") is None
        assert catalog.primary_key_of("nope") is None

    def test_merge_takes_the_winning_tables_key(self):
        merged = Catalog({"t": ("a",), "u": ("k",)}, {"t": "a", "u": "k"}).merge(
            Catalog({"t": ("b",)})
        )
        assert merged.primary_key_of("t") is None  # t's schema is other's
        assert merged.primary_key_of("u") == "k"

    def test_from_database_learns_primary_keys(self):
        from repro.db.engine import Database
        from repro.db.schema import Column, ColumnType, TableSchema

        db = Database("k")
        db.create_table(
            TableSchema("t", [Column("id", ColumnType.INT)], primary_key="id")
        )
        db.create_table(TableSchema("log", [Column("line", ColumnType.TEXT)]))
        catalog = Catalog.from_database(db)
        assert catalog.primary_key_of("t") == "id"
        assert catalog.primary_key_of("log") is None


class TestReadSets:
    def test_projection_and_predicate(self):
        lineage = compute_lineage(
            stmt_of("SELECT name FROM items WHERE seller = ?", (3,)), CATALOG
        )
        assert lineage.read_set == {("items", "name"), ("items", "seller")}
        assert lineage.exact
        assert lineage.tables == {"items"}

    def test_star_expands_through_catalog(self):
        lineage = compute_lineage(stmt_of("SELECT * FROM users"), CATALOG)
        assert lineage.read_set == {
            ("users", "id"), ("users", "nickname"), ("users", "region"),
        }
        assert lineage.exact

    def test_star_without_catalog_stays_wildcard(self):
        lineage = compute_lineage(stmt_of("SELECT * FROM users"), None)
        assert lineage.read_set == {("users", "*")}
        assert not lineage.exact

    def test_star_on_unknown_table_stays_wildcard(self):
        lineage = compute_lineage(stmt_of("SELECT * FROM mystery"), CATALOG)
        assert lineage.read_set == {("mystery", "*")}
        assert not lineage.exact

    def test_join_attributes_qualified_columns(self):
        lineage = compute_lineage(
            stmt_of(
                "SELECT items.name, bids.amount FROM items, bids "
                "WHERE items.id = bids.item_id AND bids.bidder = ?",
                (7,),
            ),
            CATALOG,
        )
        assert lineage.read_set == {
            ("items", "name"), ("items", "id"),
            ("bids", "amount"), ("bids", "item_id"), ("bids", "bidder"),
        }
        assert lineage.exact

    def test_join_resolves_unqualified_unique_owner(self):
        # "amount" exists only on bids; the catalog attributes it.
        lineage = compute_lineage(
            stmt_of(
                "SELECT amount FROM items, bids WHERE items.id = bids.item_id"
            ),
            CATALOG,
        )
        assert ("bids", "amount") in lineage.read_set
        assert ("?", "amount") not in lineage.read_set

    def test_aggregate_and_group_order(self):
        lineage = compute_lineage(
            stmt_of(
                "SELECT seller, MAX(price) FROM items "
                "GROUP BY seller ORDER BY seller"
            ),
            CATALOG,
        )
        assert lineage.read_set == {("items", "seller"), ("items", "price")}
        assert lineage.exact

    def test_subquery_reads_fold_into_outer_set(self):
        lineage = compute_lineage(
            stmt_of(
                "SELECT name FROM items WHERE id IN "
                "(SELECT item_id FROM bids WHERE bidder = ?)",
                (1,),
            ),
            CATALOG,
        )
        assert {("items", "name"), ("items", "id")} <= lineage.read_set
        assert {("bids", "item_id"), ("bids", "bidder")} <= lineage.read_set
        assert lineage.exact

    def test_outputs_carry_per_column_sources(self):
        lineage = compute_lineage(
            stmt_of("SELECT name AS title, price FROM items"), CATALOG
        )
        by_output = {o.output: o.sources for o in lineage.outputs}
        assert by_output["title"] == {("items", "name")}
        assert by_output["price"] == {("items", "price")}

    def test_selection_includes_join_condition(self):
        lineage = compute_lineage(
            stmt_of(
                "SELECT items.name FROM items, bids "
                "WHERE items.id = bids.item_id"
            ),
            CATALOG,
        )
        assert {("items", "id"), ("bids", "item_id")} <= lineage.selection


class TestReadsColumn:
    def test_exact_membership(self):
        lineage = compute_lineage(
            stmt_of("SELECT name FROM items WHERE id = ?", (1,)), CATALOG
        )
        assert lineage.reads_column("items", "name")
        assert lineage.reads_column("ITEMS", "ID")
        assert not lineage.reads_column("items", "audit_stamp")
        assert not lineage.reads_column("bids", "name")

    def test_wildcard_matches_every_column(self):
        lineage = compute_lineage(stmt_of("SELECT * FROM items"), None)
        assert lineage.reads_column("items", "anything")
        assert not lineage.reads_column("users", "anything")

    def test_spill_matches_column_on_any_table(self):
        lineage = LineageInfo(
            outputs=(), selection=frozenset(),
            read_set=frozenset({("?", "price")}),
            tables=frozenset({"items", "bids"}),
        )
        assert lineage.reads_column("items", "price")
        assert lineage.reads_column("bids", "price")
        assert not lineage.reads_column("items", "name")


class TestSoundness:
    """The contract ``docs/lineage.md`` argues: catalog-free equals the
    legacy facts, and catalog knowledge only ever *narrows coverage with
    proof* -- it never makes the template blind to a column the legacy
    set could see attributed to a real base table."""

    STATEMENTS = [
        "SELECT name FROM items WHERE seller = ?",
        "SELECT * FROM items",
        "SELECT * FROM mystery",
        "SELECT items.name, bids.amount FROM items, bids "
        "WHERE items.id = bids.item_id",
        "SELECT amount FROM items, bids WHERE items.id = bids.item_id",
        "SELECT seller, COUNT(*) FROM items GROUP BY seller",
        "SELECT name FROM items WHERE id IN "
        "(SELECT item_id FROM bids WHERE amount > 10)",
        "UPDATE items SET price = ? WHERE id = ?",
        "INSERT INTO bids (item_id, bidder, amount) VALUES (?, ?, ?)",
        "DELETE FROM users WHERE id = ?",
    ]

    def test_catalog_free_equals_extract_info(self):
        for sql in self.STATEMENTS:
            params = tuple(1 for _ in range(sql.count("?")))
            statement = stmt_of(sql, params)
            lineage = compute_lineage(statement, None)
            assert lineage.read_set == extract_info(statement).columns_read, sql

    def test_catalog_never_widens_beyond_wildcards(self):
        # Every entry the catalogued set contains must be *covered* by
        # the catalog-free set (a wildcard/spill may expand to concrete
        # columns, but no genuinely new table/column pair may appear).
        for sql in self.STATEMENTS:
            params = tuple(1 for _ in range(sql.count("?")))
            statement = stmt_of(sql, params)
            free = compute_lineage(statement, None)
            sharpened = compute_lineage(statement, CATALOG)
            for table, column in sharpened.read_set:
                assert free.reads_column(table, column) or table == "?", (
                    sql, table, column
                )

    def test_catalog_never_loses_coverage(self):
        # Monotone widening, the direction invalidation correctness
        # needs: every (table, column) the catalog-free set covers must
        # still be covered after sharpening (over the cataloged tables;
        # the whole point of expansion is dropping *unknowable* pairs a
        # wildcard over-covered, with the schema as proof).
        rng = random.Random(11)
        for sql in self.STATEMENTS:
            params = tuple(1 for _ in range(sql.count("?")))
            statement = stmt_of(sql, params)
            free = compute_lineage(statement, None)
            sharpened = compute_lineage(statement, CATALOG)
            for table in CATALOG.tables:
                for column in CATALOG.columns_of(table) | {"k%d" % rng.randrange(3)}:
                    known = column in CATALOG.columns_of(table)
                    if free.reads_column(table, column) and known:
                        assert sharpened.reads_column(table, column), (
                            sql, table, column
                        )

    def test_a_row_write_is_never_column_disjoint_from_a_read_of_its_table(self):
        # INSERT and DELETE add or remove whole rows; the column rule
        # leaves every read of the table to the instance test.
        from repro.cache.analysis import QueryAnalysisEngine

        writes = [
            "INSERT INTO bids (item_id, bidder, amount) VALUES (?, ?, ?)",
            "INSERT INTO items (name) VALUES (?)",
            "DELETE FROM users WHERE id = ?",
        ]
        for catalog in (None, CATALOG):
            engine = QueryAnalysisEngine(catalog=catalog)
            for read_sql in self.STATEMENTS:
                if not read_sql.startswith("SELECT"):
                    continue
                read, _ = templateize(read_sql, (1,) * read_sql.count("?"))
                rule = engine.column_rule(read)
                for write_sql in writes:
                    write, _ = templateize(write_sql, (1,) * write_sql.count("?"))
                    if write.info.write_table in rule.tables:
                        assert not rule.disjoint(write.info), (read_sql, write_sql)

    def test_unparsed_construct_widens_to_tables(self):
        # A statement shape _compute cannot handle must degrade to the
        # full width of its tables, not raise and not narrow.
        class Hostile:
            def __getattr__(self, name):
                raise RuntimeError("no attribute for you")

        lineage = compute_lineage(Hostile(), CATALOG)
        assert lineage.read_set == {("?", "*")}
        assert not lineage.exact
        assert lineage.reads_column("anything", "at_all")

    def test_write_read_set_is_predicate_only(self):
        lineage = compute_lineage(
            stmt_of("UPDATE items SET price = ? WHERE id = ?", (1, 2)), CATALOG
        )
        assert lineage.outputs == ()
        assert lineage.read_set == {("items", "id")}
        assert lineage.exact
