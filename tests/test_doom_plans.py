"""Doom plans: a write decides each read template once per pair and
visits only the instances it can doom.

The template-level verdict on a (read template, write template) pair --
the lineage skip, the pair analysis, the pruning plan -- lives in the
ring's analysis cache as a *pair cell*, so a second write of a template
decides nothing again; a write binds its own side of the instance tests
once per read template, and when its partner probes found no partner
row the whole template is excused without being walked.  The counters
keep their meaning: pair analyses and Figure 4's lookups per consult,
skips and tests per instance.
"""

from __future__ import annotations

import pytest

import repro.cache.analysis_cache as analysis_cache_module
from repro.cache.analysis import InvalidationPolicy, QueryAnalysisEngine
from repro.cache.analysis_cache import AnalysisCache
from repro.cache.dependency import DependencyTable
from repro.cache.entry import QueryInstance
from repro.cache.invalidation import Invalidator
from repro.cache.page_cache import PageCache
from repro.cache.replacement import make_policy
from repro.cache.stats import CacheStats
from repro.sql.lineage import Catalog
from repro.sql.template import templateize

from tests.conftest import bare_store, count_calls

UPDATE = "UPDATE notes SET body = ? WHERE id = ?"


def instance(sql: str, values: tuple, *extra) -> QueryInstance:
    return QueryInstance(*templateize(sql, values), *extra)


def populate(cache) -> None:
    """One page per read template: 25 the update below can doom, 25 its
    column rule proves disjoint (a page already there stays)."""
    for k in range(50):
        if f"/p{k}" not in cache:
            column = "body" if k % 2 else "topic"
            sql = f"SELECT {column} AS c{k} FROM notes WHERE id = ?"
            cache.insert_key(f"/p{k}", "body", [instance(sql, (k,))])


def fifty_templates():
    cache = bare_store()
    populate(cache)
    return cache


def decisions(monkeypatch) -> dict[str, list[int]]:
    """Count every template-level decision: the engine's own analysis
    and column rule, the plan builder, and the analysis cache's memo
    consults the pair cells replace."""
    return {
        "analyse_pair": count_calls(monkeypatch, QueryAnalysisEngine, "analyse_pair"),
        "column_rule": count_calls(monkeypatch, QueryAnalysisEngine, "column_rule"),
        "build_pruning_plan": count_calls(
            monkeypatch, analysis_cache_module, "build_pruning_plan"
        ),
        "AnalysisCache.analyse": count_calls(monkeypatch, AnalysisCache, "analyse"),
        "AnalysisCache.column_rule_for": count_calls(
            monkeypatch, AnalysisCache, "column_rule_for"
        ),
    }


def test_a_second_write_of_a_template_decides_nothing_again(monkeypatch):
    cache = fifty_templates()
    assert cache.process_write_request("/w", [instance(UPDATE, ("a", 1))]) == {"/p1"}
    populate(cache)
    first = cache.stats.snapshot()
    analysis = cache.invalidator.analysis
    hits = analysis.stats.hits
    counted = decisions(monkeypatch)
    assert cache.process_write_request("/w", [instance(UPDATE, ("b", 3))]) == {"/p3"}
    assert {name: calls[0] for name, calls in counted.items()} == dict.fromkeys(counted, 0)
    # The counters still count per consult: 25 analyses and 25 lineage
    # skips again, and Figure 4 sees 25 more analysis-cache hits.
    second = cache.stats.snapshot()
    assert first["pair_analyses"] == 25
    assert second["pair_analyses"] == 50
    assert second["templates_skipped_by_lineage"] == 2 * first["templates_skipped_by_lineage"] == 50
    assert second["column_plans_built"] == first["column_plans_built"] == 50
    assert analysis.stats.hits == hits + 25
    assert analysis.cell_count == 50


def test_a_catalog_swap_between_two_writes_recomputes_the_cell(monkeypatch):
    cache = fifty_templates()
    cache.process_write_request("/w", [instance(UPDATE, ("a", 1))])
    populate(cache)
    engine = cache.invalidator.engine
    engine.set_catalog(Catalog({"notes": ("id", "topic", "body")}, {"notes": "id"}))
    counted = decisions(monkeypatch)
    assert cache.process_write_request("/w", [instance(UPDATE, ("b", 3))]) == {"/p3"}
    assert counted["AnalysisCache.column_rule_for"][0] == 50
    assert counted["analyse_pair"][0] == 25
    assert counted["build_pruning_plan"][0] == 25
    assert cache.invalidator.analysis.cell_count == 100  # one row per catalog
    assert cache.stats.column_plans_built == 100


def test_intersects_any_reads_the_same_cells(monkeypatch):
    cache = fifty_templates()
    invalidator = cache.invalidator
    cache.process_write_request("/w", [instance(UPDATE, ("a", 1))])
    counted = decisions(monkeypatch)
    reads = [instance("SELECT body AS c5 FROM notes WHERE id = ?", (5,))]
    before = cache.stats.pair_analyses
    assert invalidator.intersects_any(reads, [instance(UPDATE, ("b", 5))])
    assert not invalidator.intersects_any(reads, [instance(UPDATE, ("b", 6))])
    assert {name: calls[0] for name, calls in counted.items()} == dict.fromkeys(counted, 0)
    assert cache.stats.pair_analyses == before + 2
    # ... and a cell intersects_any fills is the one the walk reads.
    fresh = [instance("SELECT body, topic FROM notes WHERE id = ?", (9,))]
    assert invalidator.intersects_any(fresh, [instance(UPDATE, ("c", 9))])
    cells = invalidator.analysis.cell_count
    cache.insert_key("/fresh", "body", fresh)
    assert cache.process_write_request("/w", [instance(UPDATE, ("d", 9))]) == {"/fresh", "/p9"}
    assert invalidator.analysis.cell_count == cells


# -- partner probes that found nothing excuse the whole template -----------------

CATALOG = Catalog(
    {"users": ("id", "region", "nickname"), "items": ("id", "seller", "category")},
    {"users": "id", "items": "id"},
)
JOIN_READ = (
    "SELECT items.id FROM items, users "
    "WHERE items.seller = users.id AND items.category = ?"
)
INSERT_USER = "INSERT INTO users (id, region) VALUES (?, ?)"


def register_join_pages(dependencies: DependencyTable, pages: int) -> None:
    for k in range(pages):
        dependencies.register(f"/region?c={k}", (instance(JOIN_READ, (k % 4,)),))


def insert_user(user: int, partners: tuple) -> QueryInstance:
    """An INSERT of user ``user`` whose probe of ``items.seller`` found
    ``partners`` (rows as ``(column, value)`` pairs)."""
    return instance(
        INSERT_USER,
        (user, 2),
        ({"id": user, "region": 2},),
        (("items", "seller", user, partners),),
    )


def invalidator(indexed: bool) -> tuple[Invalidator, PageCache, CacheStats]:
    pages, stats = PageCache(make_policy("unbounded", None)), CacheStats()
    engine = QueryAnalysisEngine(catalog=CATALOG)
    return (
        Invalidator(
            pages, AnalysisCache(engine), stats, InvalidationPolicy.ROW_WITNESS, indexed=indexed
        ),
        pages,
        stats,
    )


def test_an_insert_whose_probes_found_no_partner_visits_no_instance(monkeypatch):
    walked = count_calls(monkeypatch, Invalidator, "_walk")
    listed = count_calls(monkeypatch, DependencyTable, "instances_for")
    indexed, pages, stats = invalidator(indexed=True)
    register_join_pages(pages.dependencies, 12)
    assert indexed.affected_pages([insert_user(40, ())]) == set()
    assert walked[0] == listed[0] == 0
    assert stats.partner_skips == 12
    assert stats.intersection_tests == 0
    # The brute-force oracle walks every instance and counts the same.
    brute, brute_pages, brute_stats = invalidator(indexed=False)
    register_join_pages(brute_pages.dependencies, 12)
    assert brute.affected_pages([insert_user(40, ())]) == set()
    assert walked[0] == 1 and listed[0] == 1
    assert brute_stats.partner_skips == 12


@pytest.mark.parametrize(
    "partners, doomed",
    [
        # A partner row in category 1 joins the pages of category 1.
        (
            ((("id", 3), ("seller", 40), ("category", 1)),),
            {"/region?c=1", "/region?c=5", "/region?c=9"},
        ),
        # A partner row without the bound column contradicts nothing.
        (
            ((("id", 3), ("seller", 40)),),
            {f"/region?c={k}" for k in range(12)},
        ),
    ],
    ids=["a-partner-in-category-1", "a-partner-row-without-the-column"],
)
def test_a_probe_that_found_partners_walks_the_template_as_brute_force_does(
    partners, doomed
):
    outcomes = []
    for indexed in (True, False):
        walker, pages, stats = invalidator(indexed)
        register_join_pages(pages.dependencies, 12)
        outcomes.append(
            (walker.affected_pages([insert_user(40, partners)]), stats.partner_skips)
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == doomed
    assert outcomes[0][1] == 12 - len(doomed)


def test_an_excused_template_skips_no_instance_of_a_page_already_doomed():
    """Partner skips count only the instances a walk would visit: none
    on a page an earlier template of the same write doomed, whether the
    excused template is scanned whole or through its value index.  The
    brute-force walk visits the region read's other four pages too,
    which the value index prunes on the indexed path."""
    users_read = "SELECT nickname FROM users WHERE region = ?"
    join_region = (
        "SELECT items.id FROM items, users "
        "WHERE items.seller = users.id AND users.region = ?"
    )
    outcomes = []
    for indexed in (True, False):
        walker, pages, stats = invalidator(indexed)
        for k in range(6):
            pages.dependencies.register(
                f"/p{k}",
                (
                    instance(users_read, (k % 3,)),
                    instance(JOIN_READ, (k % 4,)),
                    instance(join_region, (k % 3,)),
                ),
            )
        outcomes.append((walker.affected_pages([insert_user(40, ())]), stats.partner_skips))
    assert outcomes == [({"/p2", "/p5"}, 4 + 0), ({"/p2", "/p5"}, 4 + 4)]

