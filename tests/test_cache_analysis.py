"""Query analysis engine tests.

The example pairs from Section 3.2 of the paper are encoded verbatim:
each of the three policies must accept/reject exactly as the paper
describes.
"""

import pytest

from repro.cache.analysis import (
    InvalidationPolicy,
    PartnerEdge,
    QueryAnalysisEngine,
    partners_excuse,
    probe_plan,
    witness_excuses,
)
from repro.sql.analysis_info import EqualityBinding
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.entry import PageEntry, QueryInstance
from repro.cache.invalidation import Invalidator
from repro.cache.page_cache import PageCache
from repro.cache.stats import CacheStats
from repro.sql.lineage import Catalog
from repro.sql.template import templateize

COL = InvalidationPolicy.COLUMN_ONLY
WHERE = InvalidationPolicy.WHERE_MATCH
EXTRA = InvalidationPolicy.EXTRA_QUERY


@pytest.fixture
def engine():
    return QueryAnalysisEngine()


def pair_of(engine, read_sql, write_sql):
    read, _ = templateize(read_sql, (0,) * read_sql.count("?"))
    write, _ = templateize(write_sql, (0,) * write_sql.count("?"))
    return engine.analyse_pair(read, write), read, write


def instance(sql, params=None, pre_image=None):
    template, values = templateize(sql, params)
    return QueryInstance(template, values, pre_image)


class TestPairAnalysis:
    def test_disjoint_tables_no_dependency(self, engine):
        pair, *_ = pair_of(
            engine, "SELECT a FROM t WHERE b = 1", "UPDATE u SET a = 2"
        )
        assert not pair.possible

    def test_paper_policy1_intersecting_columns(self, engine):
        # "SELECT a FROM T WHERE b=X" vs "UPDATE T SET a=new_val" may
        # intersect (paper example 1a).
        pair, *_ = pair_of(
            engine, "SELECT a FROM t WHERE b = 1", "UPDATE t SET a = 9 "
        )
        assert pair.possible

    def test_paper_policy1_disjoint_columns(self, engine):
        # "SELECT a FROM T WHERE b=X" vs "UPDATE T SET c=new_val" does
        # not intersect (paper example 1b).
        pair, *_ = pair_of(
            engine, "SELECT a FROM t WHERE b = 1", "UPDATE t SET c = 9"
        )
        assert not pair.possible

    def test_update_on_where_column_is_dependency(self, engine):
        pair, *_ = pair_of(
            engine, "SELECT a FROM t WHERE b = 1", "UPDATE t SET b = 9"
        )
        assert pair.possible

    def test_delete_always_possible_on_shared_table(self, engine):
        pair, *_ = pair_of(engine, "SELECT a FROM t WHERE b = 1", "DELETE FROM t")
        assert pair.possible

    def test_star_read_depends_on_any_column(self, engine):
        pair, *_ = pair_of(
            engine, "SELECT * FROM t WHERE id = 1", "UPDATE t SET zz = 1"
        )
        assert pair.possible

    def test_insert_into_read_table(self, engine):
        pair, *_ = pair_of(
            engine,
            "SELECT a FROM t WHERE b = 1",
            "INSERT INTO t (a, b) VALUES (1, 2)",
        )
        assert pair.possible


class TestRowWrites:
    """An INSERT or a DELETE writes whole rows: every column of its
    table, the generated key and the columns an INSERT leaves out
    included, so no read of the table is column-disjoint from it."""

    CATALOG = Catalog(
        {"orders": ("o_id", "o_c_id", "o_date", "o_total", "o_status")}
    )
    INSERT = (
        "INSERT INTO orders (o_c_id, o_date, o_total, o_status)"
        " VALUES (?, ?, ?, ?)"
    )
    READS = [
        "SELECT MAX(o_id) FROM orders",
        "SELECT o_id FROM orders ORDER BY o_id DESC LIMIT 1",
        "SELECT o_id FROM orders WHERE o_id > 5",
        "SELECT 1 FROM orders",
    ]

    @pytest.mark.parametrize("catalog", [None, CATALOG])
    @pytest.mark.parametrize("read_sql", READS)
    def test_an_insert_reaches_a_read_of_columns_it_does_not_list(
        self, read_sql, catalog
    ):
        engine = QueryAnalysisEngine(catalog=catalog)
        pair, read, write = pair_of(engine, read_sql, self.INSERT)
        assert pair.possible
        assert not engine.column_rule(read).disjoint(write.info)

    def test_a_delete_reaches_a_read_of_no_column(self, engine):
        pair, *_ = pair_of(
            engine, "SELECT 1 FROM orders", "DELETE FROM orders WHERE o_id = ?"
        )
        assert pair.possible

    def test_an_update_of_other_columns_stays_disjoint(self, engine):
        pair, *_ = pair_of(
            engine,
            "SELECT MAX(o_id) FROM orders",
            "UPDATE orders SET o_status = ? WHERE o_id = ?",
        )
        assert not pair.possible

    def test_an_insert_elsewhere_stays_disjoint(self, engine):
        pair, *_ = pair_of(
            engine,
            "SELECT MAX(o_id) FROM orders",
            "INSERT INTO order_line (ol_o_id, ol_qty) VALUES (?, ?)",
        )
        assert not pair.possible


class TestPolicy2WhereMatch:
    def test_paper_example_2a_different_values_prune(self, engine):
        # "SELECT a FROM T WHERE b=X" vs "UPDATE T SET a=v WHERE b=Y"
        # does not intersect when X != Y (paper example 2a).
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "UPDATE t SET a = ? WHERE b = ?",
        )
        w = QueryInstance(write, (9, 200))
        assert engine.intersects(pair, (100,), w, COL)  # policy 1: false positive
        assert not engine.intersects(pair, (100,), w, WHERE)
        assert not engine.intersects(pair, (100,), w, EXTRA)

    def test_same_values_intersect(self, engine):
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "UPDATE t SET a = ? WHERE b = ?",
        )
        w = QueryInstance(write, (9, 100))
        assert engine.intersects(pair, (100,), w, WHERE)

    def test_insert_binding_prunes(self, engine):
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "INSERT INTO t (a, b) VALUES (?, ?)",
        )
        assert not engine.intersects(
            pair, (1,), QueryInstance(write, (5, 2)), WHERE
        )
        assert engine.intersects(
            pair, (1,), QueryInstance(write, (5, 1)), WHERE
        )

    def test_insert_missing_column_prunes(self, engine):
        # The stored row (the INSERT's after-image) has NULL in the
        # read's bound column.
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "INSERT INTO t (a) VALUES (?)",
        )
        stored = QueryInstance(write, (5,), pre_image=({"a": 5, "b": None},))
        assert not engine.intersects(pair, (1,), stored, WHERE)

    def test_insert_missing_column_without_image_may_intersect(self, engine):
        # An omitted column may be a generated key or have a default:
        # without the stored row nothing is known about it.
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "INSERT INTO t (a) VALUES (?)",
        )
        assert engine.intersects(pair, (1,), QueryInstance(write, (5,)), WHERE)
        generated = QueryInstance(write, (5,), pre_image=({"a": 5, "b": 1},))
        assert engine.intersects(pair, (1,), generated, WHERE)

    def test_insert_stored_value_beats_the_inserted_one(self, engine):
        # The column coerced "1" to 1: the stored row is what a read sees.
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "INSERT INTO t (a, b) VALUES (?, ?)",
        )
        coerced = QueryInstance(write, (5, "1"), pre_image=({"a": 5, "b": 1},))
        assert engine.intersects(pair, (1,), coerced, WHERE)
        assert not engine.intersects(pair, (1,), QueryInstance(write, (5, "1")), WHERE)

    def test_update_rewriting_bound_column_not_pruned_by_where(self, engine):
        # UPDATE t SET b=v WHERE c=w can move rows INTO or OUT of the
        # read's b=X set; without a pre-image nothing can be proved.
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "UPDATE t SET b = ? WHERE c = ?",
        )
        w = QueryInstance(write, (5, 7))
        assert engine.intersects(pair, (1,), w, WHERE)

    def test_non_conjunctive_read_never_pruned(self, engine):
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b > ?",
            "UPDATE t SET a = ? WHERE b = ?",
        )
        w = QueryInstance(write, (9, 5))
        assert engine.intersects(pair, (100,), w, WHERE)
        assert engine.intersects(pair, (100,), w, EXTRA)

    def test_non_conjunctive_write_never_pruned(self, engine):
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "UPDATE t SET a = ? WHERE b > ?",
        )
        w = QueryInstance(write, (9, 5))
        assert engine.intersects(pair, (100,), w, WHERE)


class TestPolicy3ExtraQuery:
    def test_paper_example_3_pre_image_decides(self, engine):
        # "SELECT a FROM T WHERE b=X" vs "UPDATE T SET a=v WHERE d=W":
        # the write does not mention b, so the extra query fetches b of
        # the updated rows; intersect iff it returns X (paper example 3).
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "UPDATE t SET a = ? WHERE d = ?",
        )
        hit = QueryInstance(write, (9, 7), pre_image=({"b": 100, "d": 7},))
        miss = QueryInstance(write, (9, 7), pre_image=({"b": 55, "d": 7},))
        assert engine.intersects(pair, (100,), hit, EXTRA)
        assert not engine.intersects(pair, (100,), miss, EXTRA)
        # WHERE_MATCH cannot decide without the pre-image: conservative.
        assert engine.intersects(pair, (100,), miss, WHERE)

    def test_missing_pre_image_is_conservative(self, engine):
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "UPDATE t SET a = ? WHERE d = ?",
        )
        w = QueryInstance(write, (9, 7), pre_image=None)
        assert engine.intersects(pair, (100,), w, EXTRA)

    def test_empty_pre_image_prunes(self, engine):
        # The write matched no rows at all.
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "UPDATE t SET a = ? WHERE d = ?",
        )
        w = QueryInstance(write, (9, 7), pre_image=())
        assert not engine.intersects(pair, (100,), w, EXTRA)

    def test_delete_pre_image(self, engine):
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "DELETE FROM t WHERE d = ?",
        )
        gone = QueryInstance(write, (7,), pre_image=({"b": 100, "d": 7},))
        unrelated = QueryInstance(write, (7,), pre_image=({"b": 1, "d": 7},))
        assert engine.intersects(pair, (100,), gone, EXTRA)
        assert not engine.intersects(pair, (100,), unrelated, EXTRA)

    def test_update_rewrite_with_pre_image_checks_both_directions(self, engine):
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "UPDATE t SET b = ? WHERE c = ?",
        )
        # Rows enter the read's set: new value == X.
        entering = QueryInstance(write, (100, 7), pre_image=({"b": 3, "c": 7},))
        assert engine.intersects(pair, (100,), entering, EXTRA)
        # Rows leave the read's set: old value == X.
        leaving = QueryInstance(write, (3, 7), pre_image=({"b": 100, "c": 7},))
        assert engine.intersects(pair, (100,), leaving, EXTRA)
        # Neither: prune.
        unrelated = QueryInstance(write, (3, 7), pre_image=({"b": 4, "c": 7},))
        assert not engine.intersects(pair, (100,), unrelated, EXTRA)


class TestPolicyOrdering:
    """EXTRA ⊆ WHERE ⊆ COLUMN_ONLY on a grid of instances."""

    def test_monotone_precision(self, engine):
        pair, read, write = pair_of(
            engine,
            "SELECT a FROM t WHERE b = ?",
            "UPDATE t SET a = ? WHERE b = ?",
        )
        for read_value in (1, 2, 3):
            for write_value in (1, 2, 3):
                w = QueryInstance(
                    write, (0, write_value), pre_image=({"b": write_value},)
                )
                col = engine.intersects(pair, (read_value,), w, COL)
                where = engine.intersects(pair, (read_value,), w, WHERE)
                extra = engine.intersects(pair, (read_value,), w, EXTRA)
                assert (not where) or col  # WHERE ⊆ COL
                assert (not extra) or where  # EXTRA ⊆ WHERE

    def test_info_memoised(self):
        template, _ = templateize("SELECT a FROM t WHERE b = 1")
        assert template.info is template.info


class TestRowWitness:
    """ROW_WITNESS: an UPDATE that assigns only columns a read displays
    is disjoint from it unless it touched a row the read showed."""

    CATALOG = Catalog(
        {
            "items": ("id", "category", "price", "bids"),
            "users": ("id", "region", "nickname"),
        },
        {"items": "id", "users": "id"},
    )
    READ = "SELECT id, price, bids FROM items WHERE category = ? ORDER BY price"

    @pytest.fixture
    def engine(self):
        return QueryAnalysisEngine(catalog=self.CATALOG)

    def pair(self, engine, write_sql, read_sql=READ):
        return pair_of(engine, read_sql, write_sql)[0]

    def test_displayed_columns_admit_a_witness_at_the_key_position(self, engine):
        pair = self.pair(engine, "UPDATE items SET bids = ? WHERE id = ?")
        assert (pair.witness, pair.witness_key) == (0, "id")

    @pytest.mark.parametrize(
        "write_sql",
        [
            "UPDATE items SET category = ? WHERE id = ?",  # filtered on
            "UPDATE items SET price = ? WHERE id = ?",  # ordered on
            "UPDATE items SET id = ? WHERE id = ?",  # the key itself
            "DELETE FROM items WHERE id = ?",
            "INSERT INTO items (id, category) VALUES (?, ?)",
        ],
    )
    def test_no_witness_for_these_writes(self, engine, write_sql):
        assert self.pair(engine, write_sql).witness is None

    def test_no_witness_without_a_catalog(self):
        pair, *_ = pair_of(
            QueryAnalysisEngine(), self.READ, "UPDATE items SET bids = ? WHERE id = ?"
        )
        assert pair.witness is None

    def test_a_joined_table_is_witnessed_at_its_own_key(self, engine):
        read = (
            "SELECT items.price, users.id, users.nickname FROM items, users "
            "WHERE items.category = users.region AND items.id = ?"
        )
        pair = self.pair(engine, "UPDATE users SET nickname = ? WHERE id = ?", read)
        assert (pair.witness, pair.witness_key) == (1, "id")
        pair = self.pair(engine, "UPDATE users SET region = ? WHERE id = ?", read)
        assert pair.witness is None  # region is a join column
        pair = self.pair(engine, "UPDATE items SET bids = ? WHERE id = ?", read)
        assert pair.witness is None  # items.id is not projected

    def write(self, pre_image):
        template, values = templateize(
            "UPDATE items SET bids = ? WHERE id = ?", (1, 0)
        )
        return QueryInstance(template, values, pre_image)

    def test_excused_only_when_no_shown_row_was_touched(self, engine):
        pair = self.pair(engine, "UPDATE items SET bids = ? WHERE id = ?")
        shown = ((0, (4, 5)),)
        untouched = self.write(({"id": 9, "category": 2},))
        touched = self.write(({"id": 9}, {"id": 5}))
        assert witness_excuses(pair, shown, untouched)
        assert not witness_excuses(pair, shown, touched)
        assert witness_excuses(pair, shown, self.write(()))

    def test_anything_unknown_leaves_the_doom_standing(self, engine):
        pair = self.pair(engine, "UPDATE items SET bids = ? WHERE id = ?")
        untouched = self.write(({"id": 9},))
        assert not witness_excuses(pair, None, untouched)  # nothing captured
        assert not witness_excuses(pair, ((1, (4,)),), untouched)  # not the key
        assert not witness_excuses(pair, ((0, (4,)),), self.write(None))
        assert not witness_excuses(pair, ((0, (4,)),), self.write(({"bids": 1},)))
        no_witness = self.pair(engine, "UPDATE items SET price = ? WHERE id = ?")
        assert not witness_excuses(no_witness, ((0, (4,)),), untouched)

    def test_only_the_row_witness_rung_consults_it(self):
        """Through an invalidator: EXTRA_QUERY dooms, ROW_WITNESS spares
        and counts the skip."""
        read, values = templateize(self.READ, (2,))
        page = PageEntry(
            "/search", "body", dependencies=(QueryInstance(read, values, None, ((0, (4,)),)),)
        )
        doomed = {}
        for policy in (EXTRA, InvalidationPolicy.ROW_WITNESS):
            pages = PageCache()
            pages.insert(page)
            stats = CacheStats()
            invalidator = Invalidator(
                pages,
                AnalysisCache(QueryAnalysisEngine(catalog=self.CATALOG)),
                stats,
                policy,
            )
            write = self.write(({"id": 9, "category": 2, "price": 1, "bids": 0},))
            doomed[policy] = (invalidator.process_writes([write]), stats.witness_skips)
        assert doomed[EXTRA] == ({"/search"}, 0)
        assert doomed[InvalidationPolicy.ROW_WITNESS] == (set(), 1)


class TestPartnerProbes:
    """ROW_WITNESS: an INSERT into T is disjoint from a join read when
    no row of the partner table U that the new row joins satisfies the
    read's equalities on U."""

    CATALOG = Catalog(
        {
            "items": ("id", "name", "seller", "category", "end_date"),
            "users": ("id", "nickname", "region"),
            "bids": ("id", "item_id", "user_id", "bid"),
            "categories": ("id", "name"),
        },
        {"items": "id", "users": "id", "bids": "id", "categories": "id"},
    )
    REGION = (
        "SELECT items.id, items.name FROM items, users "
        "WHERE items.seller = users.id AND users.region = ? "
        "AND items.category = ? ORDER BY items.end_date LIMIT ?"
    )
    INSERT_ITEM = "INSERT INTO items (name, seller, category) VALUES (?, ?, ?)"
    INSERT_USER = "INSERT INTO users (nickname, region) VALUES (?, ?)"

    @pytest.fixture
    def engine(self):
        return QueryAnalysisEngine(catalog=self.CATALOG)

    def edges(self, engine, read_sql, write_sql):
        return pair_of(engine, read_sql, write_sql)[0].partners

    def test_a_new_item_reaches_a_region_page_through_its_seller(self, engine):
        (edge,) = self.edges(engine, self.REGION, self.INSERT_ITEM)
        assert edge.probe == ("seller", "users", "id")
        assert edge.bindings == (EqualityBinding("users", "region", value_index=0),)

    def test_a_new_user_reaches_it_through_the_items_it_sells(self, engine):
        (edge,) = self.edges(engine, self.REGION, self.INSERT_USER)
        assert edge.probe == ("id", "items", "seller")
        assert [b.column for b in edge.bindings] == ["category"]

    def test_a_fresh_key_edge_needs_no_binding_on_the_partner(self, engine):
        read = (
            "SELECT items.name FROM items JOIN bids ON items.id = bids.item_id "
            "WHERE items.category = ?"
        )
        (edge,) = self.edges(engine, read, self.INSERT_ITEM)
        assert (edge.probe, edge.bindings) == (("id", "bids", "item_id"), ())

    def test_a_non_key_column_needs_a_binding_on_the_partner(self, engine):
        """``items.category`` is no key, and the read binds nothing of
        ``categories``: the probe would find the category every time."""
        read = (
            "SELECT items.name, categories.name FROM items, categories "
            "WHERE items.category = categories.id AND items.seller = ?"
        )
        assert self.edges(engine, read, self.INSERT_ITEM) == ()
        # The partner's own key is no excuse either: it is not new.
        read = (
            "SELECT items.name FROM items, users "
            "WHERE items.seller = users.id AND items.category = ?"
        )
        assert self.edges(engine, read, self.INSERT_ITEM) == ()

    @pytest.mark.parametrize(
        "read_sql",
        [
            # an outer join keeps the new row without a partner
            "SELECT items.name FROM items LEFT JOIN users "
            "ON items.seller = users.id WHERE users.region = ?",
            "SELECT users.nickname FROM users LEFT JOIN items "
            "ON items.seller = users.id WHERE users.region = ?",
            # the inserted table bound twice (a self-join)
            "SELECT a.name FROM items a, items b, users "
            "WHERE a.seller = users.id AND b.seller = users.id "
            "AND users.region = ?",
            # the partner bound twice: whose region is bound?
            "SELECT items.name FROM items, users a, users b "
            "WHERE items.seller = a.id AND items.category = b.id "
            "AND a.region = ?",
            # a subquery
            "SELECT items.name FROM items, users WHERE items.seller = users.id "
            "AND users.region = ? AND items.id IN "
            "(SELECT item_id FROM bids WHERE bid = ?)",
            # a disjunction, an inequality
            "SELECT items.name FROM items, users WHERE items.seller = users.id "
            "AND (users.region = ? OR items.category = ?)",
            "SELECT items.name FROM items JOIN users "
            "ON items.seller > users.id WHERE users.region = ?",
            # one table only
            "SELECT name FROM items WHERE seller = ?",
        ],
    )
    def test_no_edge_for_these_reads(self, engine, read_sql):
        assert self.edges(engine, read_sql, self.INSERT_ITEM) == ()

    def test_a_column_that_spills_is_no_edge(self):
        """Without a catalog ``seller`` could be either table's."""
        read = (
            "SELECT items.name FROM items, users "
            "WHERE seller = users.id AND users.region = ?"
        )
        assert self.edges(QueryAnalysisEngine(), read, self.INSERT_ITEM) == ()
        assert self.edges(QueryAnalysisEngine(catalog=self.CATALOG), read, self.INSERT_ITEM)

    def test_only_inserts_have_edges(self, engine):
        for write in (
            "UPDATE items SET seller = ? WHERE id = ?",
            "DELETE FROM items WHERE id = ?",
        ):
            assert self.edges(engine, self.REGION, write) == ()

    def test_the_probe_plan_is_the_sorted_union_of_the_edges(self, engine):
        bids = (
            "SELECT users.nickname, bids.bid FROM bids, users "
            "WHERE bids.item_id = ? AND bids.user_id = users.id"
        )
        def template(sql):
            return templateize(sql, (0,) * sql.count("?"))[0]

        reads = [template(sql) for sql in (self.REGION, bids, self.REGION)]
        user = template(self.INSERT_USER)
        assert probe_plan(engine, reads, user) == (
            ("id", "bids", "user_id"),
            ("id", "items", "seller"),
        )
        update = template("UPDATE users SET region = ? WHERE id = ?")
        assert probe_plan(engine, reads, update) == ()

    # -- the run-time test -------------------------------------------------------

    def item(self, seller, partners, image=True):
        template, values = templateize(self.INSERT_ITEM, ("lamp", seller, 3))
        stored = ({"id": 50, "name": "lamp", "seller": seller, "category": 3},)
        return QueryInstance(template, values, stored if image else None, partners)

    @staticmethod
    def user(id, region):
        return (("id", id), ("nickname", "n"), ("region", region))

    def excuses(self, engine, write, region=1):
        pair = pair_of(engine, self.REGION, self.INSERT_ITEM)[0]
        return partners_excuse(pair, (region, 3, 10), write)

    def test_the_seller_in_another_region_excuses(self, engine):
        assert self.excuses(engine, self.item(7, (("users", "id", 7, (self.user(7, 2),)),)))
        assert not self.excuses(
            engine, self.item(7, (("users", "id", 7, (self.user(7, 1),)),))
        )

    def test_no_partner_at_all_excuses(self, engine):
        assert self.excuses(engine, self.item(7, (("users", "id", 7, ()),)))

    def test_a_null_region_contradicts_as_the_engine_compares(self, engine):
        assert self.excuses(engine, self.item(7, (("users", "id", 7, (self.user(7, None),)),)))

    def test_anything_unknown_leaves_the_doom_standing(self, engine):
        seller_elsewhere = (("users", "id", 7, (self.user(7, 2),)),)
        assert not self.excuses(engine, self.item(7, None))  # nothing probed
        assert not self.excuses(engine, self.item(7, seller_elsewhere, image=False))
        # a probe for another value, or of another column
        assert not self.excuses(engine, self.item(8, seller_elsewhere))
        assert not self.excuses(
            engine, self.item(7, (("users", "region", 7, (self.user(7, 2),)),))
        )
        # a partner row lacking the bound column contradicts nothing
        assert not self.excuses(engine, self.item(7, (("users", "id", 7, ((("id", 7),),)),)))

    def test_every_inserted_row_must_be_excused(self, engine):
        pair = pair_of(engine, self.REGION, self.INSERT_ITEM)[0]
        template, values = templateize(self.INSERT_ITEM, ("lamp", 7, 3))
        rows = ({"id": 50, "seller": 7}, {"id": 51, "seller": 8})
        probes = (
            ("users", "id", 7, (self.user(7, 2),)),
            ("users", "id", 8, (self.user(8, 1),)),
        )
        write = QueryInstance(template, values, rows, probes)
        assert not partners_excuse(pair, (1, 3, 10), write)
        assert partners_excuse(pair, (3, 3, 10), write)

    def test_an_edge_without_bindings_excuses_only_an_empty_probe(self):
        edge = PartnerEdge("id", "bids", "item_id")
        pair = pair_of(
            QueryAnalysisEngine(catalog=self.CATALOG),
            "SELECT items.name FROM items, bids WHERE items.id = bids.item_id "
            "AND items.category = ?",
            self.INSERT_ITEM,
        )[0]
        assert pair.partners == (edge,)
        template, values = templateize(self.INSERT_ITEM, ("lamp", 7, 3))
        stored = ({"id": 50, "seller": 7},)
        empty = QueryInstance(template, values, stored, (("bids", "item_id", 50, ()),))
        bid = ((("id", 1), ("item_id", 50)),)
        found = QueryInstance(template, values, stored, (("bids", "item_id", 50, bid),))
        assert partners_excuse(pair, (3,), empty)
        assert not partners_excuse(pair, (3,), found)

    def test_only_the_row_witness_rung_consults_the_probes(self):
        read, values = templateize(self.REGION, (1, 3, 10))
        page = PageEntry("/region", "body", dependencies=(QueryInstance(read, values),))
        write = self.item(7, (("users", "id", 7, (self.user(7, 2),)),))
        outcome = {}
        for policy in (EXTRA, InvalidationPolicy.ROW_WITNESS):
            for indexed in (True, False):
                pages = PageCache()
                pages.insert(page)
                stats = CacheStats()
                invalidator = Invalidator(
                    pages,
                    AnalysisCache(QueryAnalysisEngine(catalog=self.CATALOG)),
                    stats,
                    policy,
                    indexed=indexed,
                )
                outcome[policy, indexed] = (
                    invalidator.affected_pages([write]),
                    invalidator.intersects_any(list(page.dependencies), [write]),
                    stats.partner_skips > 0,
                )
        for indexed in (True, False):
            assert outcome[EXTRA, indexed] == ({"/region"}, True, False)
            assert outcome[InvalidationPolicy.ROW_WITNESS, indexed] == (set(), False, True)
