"""Property-based tests for AutoWebCache's central guarantees.

1. **Strong consistency** (the paper's core claim): under any random
   interleaving of reads and writes, every response served by the
   cache-enabled application is byte-identical to the response a fresh
   cache-free execution of the same request would produce.

2. **Policy soundness and precision ordering**: every invalidation
   rung preserves strong consistency, and the number of pages the
   paper's three invalidate is monotone: EXTRA_QUERY <= WHERE_MATCH <=
   COLUMN_ONLY.

3. **LRU model conformance**: the bounded page cache behaves like a
   textbook LRU model.
"""

from __future__ import annotations

from contextlib import contextmanager

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.aop.weaver import notify_aspect_switch
from repro.cache.analysis import InvalidationPolicy
from repro.cache.autowebcache import AutoWebCache
from repro.cache.entry import PageEntry
from repro.cache.page_cache import PageCache
from repro.cache.replacement import LruPolicy
from repro.db import connect
from repro.web.http import HttpRequest, HttpResponse
from repro.web.servlet import HttpServlet

from tests.conftest import build_notes_app

#: The rungs whose precision ordering the paper states.
PAPER_RUNGS = (
    InvalidationPolicy.COLUMN_ONLY,
    InvalidationPolicy.WHERE_MATCH,
    InvalidationPolicy.EXTRA_QUERY,
)

# One workload step: (kind, args).
steps = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, 15),  # id
        st.sampled_from(["a", "b", "c"]),  # topic
        st.integers(0, 5),  # score
    ),
    st.tuples(st.just("score"), st.integers(0, 15), st.integers(0, 9)),
    st.tuples(st.just("delete"), st.integers(0, 15)),
    st.tuples(st.just("view_topic"), st.sampled_from(["a", "b", "c"])),
    st.tuples(st.just("view_note"), st.integers(0, 15)),
)
operations = st.lists(steps, min_size=1, max_size=40)


def apply_operation(container, op, added):
    """Dispatch one step against a container; returns a response or None."""
    kind = op[0]
    if kind == "add":
        _, note_id, topic, score = op
        if note_id in added:
            return None  # duplicate pk: skip
        added.add(note_id)
        return container.post(
            "/add",
            {
                "id": str(note_id),
                "topic": topic,
                "body": f"body{note_id}",
                "score": str(score),
            },
        )
    if kind == "score":
        _, note_id, score = op
        return container.post("/score", {"id": str(note_id), "score": str(score)})
    if kind == "delete":
        return container.post("/delete", {"id": str(op[1])})
    if kind == "view_topic":
        return container.get("/view_topic", {"topic": op[1]})
    if kind == "view_note":
        return container.get("/view_note", {"id": str(op[1])})
    if kind == "view_top":
        return container.get("/view_top", {"topic": op[1]})
    raise AssertionError(kind)


class TopScoresServlet(HttpServlet):
    """The two lowest-scored notes of a topic: the key is shown, and the
    column ``/score`` assigns decides which rows make the window."""

    def __init__(self, connection) -> None:
        self._connection = connection

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        result = self._connection.create_statement().execute_query(
            "SELECT id, body FROM notes WHERE topic = ? ORDER BY score LIMIT 2",
            (request.get_parameter("topic"),),
        )
        while result.next():
            response.write(f"<p>{result.get('id')}:{result.get('body')}</p>")


def build_notes_app_with_top_scores():
    db, container = build_notes_app()
    container.register("/view_top", TopScoresServlet(connect(db)))
    return db, container


#: The base workload plus reads of the top-scores window.
witness_operations = st.lists(
    st.one_of(
        steps, st.tuples(st.just("view_top"), st.sampled_from(["a", "b", "c"]))
    ),
    min_size=1,
    max_size=40,
)


@contextmanager
def caching_off(awc):
    """Switch the caching aspects off for one step.  The weaver patches
    servlet *classes*, which the mirror app shares: without this its
    reads would be served from the same cache, and every comparison
    would hold however stale the cache got."""
    aspects = [awc.read_aspect, awc.write_aspect, awc.jdbc_aspect]
    if awc.fragment_aspect is not None:
        aspects.append(awc.fragment_aspect)
    for aspect in aspects:
        aspect.enabled = False
    notify_aspect_switch()
    try:
        yield
    finally:
        for aspect in aspects:
            del aspect.enabled
        notify_aspect_switch()


def run_consistency_check(ops, policy, build=build_notes_app):
    """Run ops against a cached app and a mirror uncached app in
    lock-step; every read must agree."""
    db, container = build()
    ref_db, ref_container = build()
    awc = AutoWebCache(policy=policy)
    awc.install(container.servlet_classes)
    try:
        added: set[int] = set()
        ref_added: set[int] = set()
        for op in ops:
            response = apply_operation(container, op, added)
            with caching_off(awc):
                reference = apply_operation(ref_container, op, ref_added)
            if response is None:
                continue
            if op[0].startswith("view"):
                assert response.body == reference.body, (
                    f"stale page under {policy} for {op}: "
                    f"{response.body!r} != {reference.body!r}"
                )
        return awc.cache.stats
    finally:
        awc.uninstall()


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_strong_consistency_extra_query(ops):
    run_consistency_check(ops, InvalidationPolicy.EXTRA_QUERY)


@settings(max_examples=80, deadline=None)
@given(ops=witness_operations)
@example(
    ops=[
        ("add", 1, "a", 1),
        ("add", 2, "a", 2),
        ("add", 3, "a", 3),
        ("view_top", "a"),
        ("score", 3, 0),  # a note the window did not show moves into it
        ("view_top", "a"),
    ]
)
def test_strong_consistency_row_witness(ops):
    # /view_topic projects the key and /score assigns a column it only
    # displays: the witness decides those dooms.  /view_top orders its
    # window by that column: a score change may move a note it never
    # showed into it, so no witness may excuse that doom.
    run_consistency_check(
        ops, InvalidationPolicy.ROW_WITNESS, build_notes_app_with_top_scores
    )


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_strong_consistency_where_match(ops):
    run_consistency_check(ops, InvalidationPolicy.WHERE_MATCH)


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_strong_consistency_column_only(ops):
    run_consistency_check(ops, InvalidationPolicy.COLUMN_ONLY)


@settings(max_examples=30, deadline=None)
@given(ops=operations)
def test_policy_precision_ordering(ops):
    """More precise policies never invalidate more pages."""
    invalidated = {}
    for policy in PAPER_RUNGS:
        stats = run_consistency_check(ops, policy)
        invalidated[policy] = stats.invalidated_pages
    assert (
        invalidated[InvalidationPolicy.EXTRA_QUERY]
        <= invalidated[InvalidationPolicy.WHERE_MATCH]
        <= invalidated[InvalidationPolicy.COLUMN_ONLY]
    )


@settings(max_examples=30, deadline=None)
@given(ops=operations)
def test_hits_never_decrease_with_precision(ops):
    """More precise policies can only preserve or improve the hit count."""
    hits = {}
    for policy in PAPER_RUNGS:
        stats = run_consistency_check(ops, policy)
        hits[policy] = stats.hits
    assert hits[InvalidationPolicy.EXTRA_QUERY] >= hits[
        InvalidationPolicy.WHERE_MATCH
    ] >= hits[InvalidationPolicy.COLUMN_ONLY]


# ---------------------------------------------------------------------------
# LRU model conformance
# ---------------------------------------------------------------------------

lru_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup"]), st.integers(0, 7)),
    max_size=60,
)


@settings(max_examples=150)
@given(ops=lru_ops, capacity=st.integers(1, 4))
def test_lru_page_cache_matches_model(ops, capacity):
    cache = PageCache(LruPolicy(capacity=capacity))
    model: list[int] = []  # most recent last
    for kind, key in ops:
        name = f"/p{key}"
        if kind == "insert":
            cache.insert(PageEntry(key=name, body="x"))
            if key in model:
                model.remove(key)
            model.append(key)
            if len(model) > capacity:
                model.pop(0)
        else:
            entry, _reason = cache.lookup(name, now=0.0)
            if key in model:
                assert entry is not None
                model.remove(key)
                model.append(key)
            else:
                assert entry is None
        assert len(cache) == len(model)
        assert set(cache.keys()) == {f"/p{k}" for k in model}
