"""Unit tests for the dependency-table indexes and write dedupe.

The table index and value index are pure accelerators: every answer
they give must be a subset-with-accounting of what the full scan would
return, and anything they cannot answer soundly must degrade to the
full scan (``None``), never to a wrong subset.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.analysis import InvalidationPolicy, QueryAnalysisEngine
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.dependency import DependencyTable
from repro.cache.entry import PageEntry, QueryInstance
from repro.cache.invalidation import Invalidator, dedupe_writes
from repro.cache.page_cache import PageCache
from repro.cache.replacement import make_policy
from repro.cache.stats import CacheStats
from repro.sql.parser import parse_statement
from repro.sql.template import QueryTemplate, templateize


def _read(sql: str, params: tuple = ()) -> QueryInstance:
    template, values = templateize(sql, params)
    return QueryInstance(template, values)


def _write(sql: str, params: tuple = (), pre_image=None) -> QueryInstance:
    template, values = templateize(sql, params)
    return QueryInstance(template, values, pre_image)


def _indexed_invalidator(pages: PageCache) -> Invalidator:
    return Invalidator(
        pages,
        AnalysisCache(QueryAnalysisEngine()),
        CacheStats(),
        InvalidationPolicy.EXTRA_QUERY,
        indexed=True,
    )


class TestTableIndex:
    def test_candidates_limited_to_shared_tables(self):
        table = DependencyTable()
        users = _read("SELECT name FROM users WHERE id = ?", (1,))
        items = _read("SELECT price FROM items WHERE id = ?", (2,))
        table.register("p-users", (users,))
        table.register("p-items", (items,))

        candidates, skipped = table.candidate_templates(["users"])
        assert [t.text for t in candidates] == [users.template.text]
        assert skipped == 1

        candidates, skipped = table.candidate_templates(["bids"])
        assert candidates == []
        assert skipped == 2

    def test_unregister_cleans_both_indexes(self):
        table = DependencyTable()
        read = _read("SELECT name FROM users WHERE id = ?", (1,))
        table.register("p1", (read,))
        table.register("p2", (read,))

        table.unregister("p1", (read,))
        candidates, _ = table.candidate_templates(["users"])
        assert len(candidates) == 1  # p2 still registered

        table.unregister("p2", (read,))
        assert table.template_count == 0
        candidates, skipped = table.candidate_templates(["users"])
        assert candidates == [] and skipped == 0
        # The value index must not leak the dead template either.
        assert table._value_index == {}
        assert table._templates_by_table == {}

    def test_duplicate_registration_is_idempotent(self):
        table = DependencyTable()
        read = _read("SELECT name FROM users WHERE id = ?", (1,))
        table.register("p1", (read, read))
        table.register("p1", (read,))
        assert table.registration_count == 1
        result = table.instances_for_values(read.template, 0, [1])
        assert result is not None
        candidates, skipped = result
        assert candidates == [("p1", read)] and skipped == 0


class TestValueIndex:
    def test_lookup_returns_only_matching_values(self):
        table = DependencyTable()
        template, _ = templateize("SELECT name FROM users WHERE id = ?", (0,))
        for k in range(4):
            table.register(f"p{k}", (QueryInstance(template, (k,)),))

        result = table.instances_for_values(template, 0, [2])
        assert result == ([("p2", QueryInstance(template, (2,)))], 3)

        result = table.instances_for_values(template, 0, [1, 3])
        assert result is not None
        candidates, skipped = result
        assert sorted((key, read.values) for key, read in candidates) == [
            ("p1", (1,)),
            ("p3", (3,)),
        ]
        assert skipped == 2

    def test_a_shared_value_returns_its_pages_in_registration_order(self):
        # A bucket of many pages is an ordered dict: the order a write
        # tests them in (and the counters that depend on it) is the
        # same under every hash seed.  Removals keep the order of the
        # rest, down to a bucket of one.
        table = DependencyTable()
        template, _ = templateize("SELECT name FROM items WHERE category = ?", (0,))
        read = QueryInstance(template, (7,))
        keys = [f"/search?page={k}" for k in range(40)]
        for key in keys:
            table.register(key, (read,))
        for gone in keys[::2]:
            table.unregister(gone, (read,))
        for kept in (keys[1::2], keys[-1:]):
            for gone in keys[1::2]:
                if gone not in kept:
                    table.unregister(gone, (read,))
            candidates, skipped = table.instances_for_values(template, 0, [7])
            assert [key for key, _read in candidates] == kept and skipped == 0

    def test_missing_position_falls_back(self):
        table = DependencyTable()
        # No equality binding -> no indexable positions -> no value index.
        read = _read("SELECT name FROM users WHERE id > ?", (1,))
        table.register("p1", (read,))
        assert table.instances_for_values(read.template, 0, [1]) is None

    def test_absent_template_answers_empty(self):
        table = DependencyTable()
        read = _read("SELECT name FROM users WHERE id = ?", (1,))
        assert table.instances_for_values(read.template, 0, [1]) == ([], 0)

    def test_unhashable_value_demotes_template_permanently(self):
        table = DependencyTable()
        template, _ = templateize("SELECT name FROM users WHERE id = ?", (0,))
        table.register("p0", (QueryInstance(template, (0,)),))
        # A registration with an unhashable bound value poisons the
        # whole template's value index...
        table.register("bad", (QueryInstance(template, ([1, 2],)),))
        assert table.instances_for_values(template, 0, [0]) is None
        # ...and the demotion sticks even after the bad page goes away
        # (a partially rebuilt index would answer unsoundly).
        table.unregister("bad", (QueryInstance(template, ([1, 2],)),))
        assert table.instances_for_values(template, 0, [0]) is None
        # The full scan still sees everything.
        assert ("p0", QueryInstance(template, (0,))) in table.instances_for(template)

    def test_clear_forgets_the_demotion(self):
        """An emptied table starts over: a template demoted by one bad
        registration must be indexable again after ``clear()``."""
        table = DependencyTable()
        template, _ = templateize("SELECT name FROM users WHERE id = ?", (0,))
        table.register("bad", (QueryInstance(template, ([1, 2],)),))
        assert table.instances_for_values(template, 0, [0]) is None
        table.clear()
        table.register("p0", (QueryInstance(template, (0,)),))
        table.register("p1", (QueryInstance(template, (1,)),))
        assert table.instances_for_values(template, 0, [0]) == (
            [("p0", QueryInstance(template, (0,)))],
            1,
        )

    def test_unhashable_probe_value_falls_back(self):
        table = DependencyTable()
        template, _ = templateize("SELECT name FROM users WHERE id = ?", (0,))
        table.register("p0", (QueryInstance(template, (0,)),))
        assert table.instances_for_values(template, 0, [[1, 2]]) is None


_COUNTED_TEMPLATES = (
    templateize("SELECT name FROM users WHERE id = ?", (0,))[0],
    templateize("SELECT title FROM items WHERE seller = ? AND id > ?", (0, 0))[0],
)
_bound = st.one_of(st.integers(0, 3), st.just([9]))  # a list is unindexable
_instances = st.one_of(
    st.builds(lambda a: QueryInstance(_COUNTED_TEMPLATES[0], (a,)), _bound),
    st.builds(
        lambda a, b: QueryInstance(_COUNTED_TEMPLATES[1], (a, b)),
        _bound,
        st.integers(0, 3),
    ),
)
_table_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("register"),
            st.sampled_from(["p0", "p1", "p2"]),
            st.lists(_instances, max_size=3),
        ),
        st.tuples(
            st.just("unregister"),
            st.sampled_from(["p0", "p1", "p2"]),
            st.lists(_instances, max_size=3),
        ),
        st.tuples(st.just("clear"), st.just(""), st.just([])),
    ),
    max_size=25,
)


class TestRegistrationCounts:
    @settings(max_examples=200, deadline=None)
    @given(_table_ops)
    def test_stored_counts_equal_the_recomputed_sums(self, ops):
        table = DependencyTable()
        for op, page_key, instances in ops:
            if op == "clear":
                table.clear()
            else:
                getattr(table, op)(page_key, tuple(instances))
            total = 0
            for template in _COUNTED_TEMPLATES:
                walked = len(table.instances_for(template))
                assert table.instance_count(template) == walked
                total += walked
                result = table.instances_for_values(template, 0, [0, 1])
                if result is not None:
                    candidates, skipped = result
                    assert skipped == walked - len(candidates)
            assert table.registration_count == total


class TestIndexedInvalidatorFallbacks:
    """The invalidator must produce brute-force results even when the
    indexes degrade."""

    def test_unindexable_template_still_invalidated_correctly(self):
        pages = PageCache(make_policy("unbounded", None))
        template, _ = templateize("SELECT name FROM users WHERE id = ?", (0,))
        pages.insert(
            PageEntry(
                key="good",
                body="x",
                dependencies=(QueryInstance(template, (1,)),),
            )
        )
        pages.insert(
            PageEntry(
                key="bad",
                body="x",
                dependencies=(QueryInstance(template, ([9],)),),
            )
        )
        invalidator = _indexed_invalidator(pages)
        writes = [_write("UPDATE users SET name = ? WHERE id = ?", ("n", 1))]
        assert invalidator.affected_pages(writes) == {"good"}

    def test_literal_read_binding_prunes_whole_template(self):
        """Reads with literal equality bindings (no placeholder) decide
        in/out per template, not per instance."""
        pages = PageCache(make_policy("unbounded", None))
        statement = parse_statement("SELECT name FROM users WHERE id = 5")
        template = QueryTemplate(text=statement.unparse(), statement=statement)
        pages.insert(
            PageEntry(
                key="pinned",
                body="x",
                dependencies=(QueryInstance(template, ()),),
            )
        )
        invalidator = _indexed_invalidator(pages)

        miss = [_write("UPDATE users SET name = ? WHERE id = ?", ("n", 3))]
        assert invalidator.affected_pages(miss) == set()

        hit = [_write("UPDATE users SET name = ? WHERE id = ?", ("n", 5))]
        assert invalidator.affected_pages(hit) == {"pinned"}

    def test_pruning_counters_recorded(self):
        pages = PageCache(make_policy("unbounded", None))
        read_tpl, _ = templateize("SELECT name FROM users WHERE id = ?", (0,))
        for k in range(4):
            pages.insert(
                PageEntry(
                    key=f"u{k}",
                    body="x",
                    dependencies=(QueryInstance(read_tpl, (k,)),),
                )
            )
        pages.insert(
            PageEntry(
                key="item",
                body="x",
                dependencies=(
                    _read("SELECT price FROM items WHERE id = ?", (1,)),
                ),
            )
        )
        invalidator = _indexed_invalidator(pages)
        writes = [_write("UPDATE users SET name = ? WHERE id = ?", ("n", 2))]
        assert invalidator.affected_pages(writes) == {"u2"}
        snapshot = invalidator._stats.snapshot()
        # The items template never shares a table with the write; three
        # of the four user registrations are value-pruned.
        assert snapshot["templates_skipped_by_index"] == 1
        assert snapshot["instances_skipped_by_index"] == 3
        assert snapshot["pair_analyses"] == 1
        assert snapshot["intersection_tests"] == 1


class TestDedupeWrites:
    def test_identical_instances_collapse(self):
        a = _write("DELETE FROM users WHERE id = ?", (1,))
        b = _write("DELETE FROM users WHERE id = ?", (1,))
        c = _write("DELETE FROM users WHERE id = ?", (2,))
        assert len(dedupe_writes([a, b, c, a])) == 2

    def test_distinct_pre_images_do_not_collapse(self):
        a = _write(
            "DELETE FROM users WHERE id = ?", (1,), ({"id": 1, "name": "x"},)
        )
        b = _write(
            "DELETE FROM users WHERE id = ?", (1,), ({"id": 1, "name": "y"},)
        )
        assert len(dedupe_writes([a, b])) == 2
        assert len(dedupe_writes([a, a, b])) == 2

    def test_unhashable_values_kept_conservatively(self):
        a = _write("DELETE FROM users WHERE id = ?", ([1],))
        b = _write("DELETE FROM users WHERE id = ?", ([1],))
        assert len(dedupe_writes([a, b])) == 2


class TestRowWitnessRegistrations:
    def test_the_witness_rides_with_the_registration(self):
        table = DependencyTable()
        template, _ = templateize("SELECT id FROM users WHERE region = ?", (0,))
        shown = QueryInstance(template, (1,), witness=((0, (4, 5)),))
        table.register("p1", (shown,))
        assert table.instances_for(template) == [("p1", shown)]
        assert table.instances_for_values(template, 0, [1]) == ([("p1", shown)], 0)

    def test_one_vector_shown_twice_differently_keeps_both(self):
        table = DependencyTable()
        template, _ = templateize("SELECT id FROM users WHERE region = ?", (0,))
        first = QueryInstance(template, (1,), witness=((0, (4,)),))
        second = QueryInstance(template, (1,), witness=((0, (5,)),))
        table.register("p1", (first, second, first))
        assert table.registration_count == 2
        table.unregister("p1", (first, second))
        assert table.registration_count == 0 and table._value_index == {}


class TestRemovedRegistrations:
    """Removing a page removes its registrations from the template map
    and the value index at once, each by identity, so nothing a write
    does sees or counts them, and the live keep their order."""

    REGION = "SELECT name FROM users WHERE region = ?"

    def test_an_evicted_or_doomed_registration_is_never_visited_or_counted(
        self, monkeypatch
    ):
        pages = PageCache(make_policy("lru", 4))
        invalidator = _indexed_invalidator(pages)
        template, _ = templateize(self.REGION, (0,))
        table = pages.dependencies
        for k, region in enumerate((0, 1, 0, 1, 0)):
            pages.insert(
                PageEntry(f"/p{k}", "body", dependencies=(QueryInstance(template, (region,)),))
            )
            assert table.instance_count(template) == min(k + 1, 4)  # taken in
        assert "/p0" not in pages  # evicted by /p4 (capacity 4)
        assert pages.invalidate("/p1")  # doomed
        assert (len(table._by_template[template]), table.instance_count(template)) == (3, 3)
        visited: list[str] = []
        walk = Invalidator._walk

        def recorded(self, pair, written, partners, instances, *args):
            visited.extend(key for key, _read in instances)
            return walk(self, pair, written, partners, instances, *args)

        monkeypatch.setattr(Invalidator, "_walk", recorded)
        stats = invalidator._stats
        # A value-index probe: region 0 held /p0 (evicted), /p2 and /p4.
        invalidator.process_writes([_write("UPDATE users SET name = ? WHERE region = ?", ("n", 0))])
        assert visited == ["/p2", "/p4"]
        assert (stats.intersection_tests, stats.instances_skipped_by_index) == (2, 1)
        assert not ({"/p2", "/p4"} & set(pages.keys()))  # that write doomed both
        assert list(table._value_index[template][0]) == [1]  # region 0's bucket went
        # A full scan over every registration of the template: only /p3
        # is live.
        visited.clear()
        invalidator.affected_pages([_write("UPDATE users SET name = ?", ("m",))])
        assert visited == ["/p3"]
        assert stats.intersection_tests == 2 + 1

    def test_a_page_gone_before_any_reader_is_never_taken_in(self):
        pages = PageCache(make_policy("lru", 2))
        template, _ = templateize(self.REGION, (0,))
        for k in range(6):
            pages.insert(PageEntry(f"/p{k}", "body", dependencies=(QueryInstance(template, (k,)),)))
        table = pages.dependencies
        assert len(table._pending) == 6 and "/p0" not in pages
        assert table.instances_for(template) == [
            ("/p4", QueryInstance(template, (4,))),
            ("/p5", QueryInstance(template, (5,))),
        ]
        assert table._pending == [] and len(table._by_template[template]) == 2

    def test_removal_keeps_the_live_registrations_in_their_order(self):
        table = DependencyTable()
        template, _ = templateize(self.REGION, (0,))
        read = QueryInstance(template, (7,))
        keys = [f"/search?page={k}" for k in range(20)]
        for key in keys:
            table.register(key, (read,))
        assert template not in table._value_index  # no write has probed it
        assert len(table.instances_for_values(template, 0, [7])[0]) == 20
        gone = keys[1::2] + keys[:1]
        for key in gone:
            table.unregister(key)
        live = [key for key in keys if key not in gone]
        assert [key for key, _read in table._by_template[template].values()] == live
        assert [key for key, _read in table._value_index[template][0][7].values()] == live
        candidates, skipped = table.instances_for_values(template, 0, [7])
        assert [key for key, _read in candidates] == live and skipped == 0
        # A page registered again comes after the rest.
        table.register(keys[0], (read,))
        candidates, _skipped = table.instances_for_values(template, 0, [7])
        assert [key for key, _read in candidates] == [*live, keys[0]]
