"""Ground truth for invalidation: the database decides, not the analysis.

``make differential`` proves the indexed engine dooms what the
brute-force protocol dooms; both sides share the SQL analysis, so a
wrong proof passes it.  This module asks the database instead.  A woven
application replays a bench request list, and after every write request
each resident entry's read instances are executed again: a result that
differs from the rows the entry was rendered from is a **stale entry**.
The gate is zero, on both applications and on every rung that claims
strong consistency.

The same replay classifies every doom a write request caused: a doomed
entry whose reads still return what it was rendered from was doomed for
nothing.  That share, per rung and per write template, is the precision
the rungs trade (Ji et al.'s measure of invalidation waste) and is
written to ``benchmarks/results/invalidation_ground_truth.txt``.

What a "result" is: the rows a read instance returns when its template
runs with its value vector, straight against the database -- no weaving,
no cache.  Entries under a semantic TTL window are stale by design and
are not audited.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from bench.workloads import WORKLOADS, build_app, generate
from repro.apps.rubis import RubisDataset, build_rubis
from repro.cache.analysis import InvalidationPolicy
from repro.cache.api import Cache
from repro.cache.autowebcache import AutoWebCache
from repro.cache.invalidation import Invalidator
from repro.cache.page_cache import PageCache
from repro.harness.reporting import render_table
from repro.web.http import HttpRequest

RESULTS = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "results"
    / "invalidation_ground_truth.txt"
)

#: (workload, seed, requests replayed after a 300-request warm-up).
REPLAYS = (("rubis_bidding", 57, 1500), ("tpcw_shopping_ring4", 57, 1000))
WARMUP = 300

#: Label of a doom no write template caused directly: an entry
#: assembled from a doomed fragment's text.
CONTAINMENT = "(containment closure)"


class GroundTruth:
    """Records what each stored entry was rendered from, and checks it.

    Installed with :meth:`watching`, which wraps (for its duration) the
    cache's insert to record each stored entry's read results, and the
    invalidator and page store to attribute each doom to the write
    template that caused it.
    """

    def __init__(self, database) -> None:
        self.database = database
        #: id(entry) -> (entry, the rows each of its reads returned).
        self.recorded: dict[int, tuple[object, list]] = {}
        #: Tables written since the last audit, seen by a trigger (the
        #: database's account, not the cache's).
        self.written: set[str] = set()
        self.stale: dict[int, str] = {}
        #: (write template, the doomed entry) pairs of the current request.
        self.pending: list[tuple[str, object]] = []
        self.cause = CONTAINMENT
        #: (write template, result changed?) -> dooms.
        self.dooms: Counter = Counter()
        database.triggers.on_any(lambda event: self.written.add(event.table))

    def rows(self, instance) -> list:
        result = self.database.query(instance.template.text, instance.values)
        return [tuple(row) for row in result.rows]

    def changed(self, entry) -> bool:
        _entry, rows = self.recorded[id(entry)]
        return any(
            self.rows(read) != shown for read, shown in zip(entry.dependencies, rows)
        )

    @contextmanager
    def watching(self):
        truth = self
        insert_key = Cache.insert_key
        affected = Invalidator._affected_pages_indexed
        process = Invalidator.process_writes
        invalidate = PageCache.invalidate

        def recording_insert(self, key, body, reads, *args, **kwargs):
            entry, stored = insert_key(self, key, body, reads, *args, **kwargs)
            if stored and not entry.semantic:
                truth.recorded[id(entry)] = (
                    entry,
                    [truth.rows(read) for read in entry.dependencies],
                )
            return entry, stored

        def attributed(self, write, *verdicts):
            truth.cause = write.template.text
            return affected(self, write, *verdicts)

        def then_containment(self, writes, *verdicts):
            try:
                return process(self, writes, *verdicts)
            finally:
                truth.cause = CONTAINMENT

        def noted(self, key):
            entry = self.peek(key)
            removed = invalidate(self, key)
            if removed and id(entry) in truth.recorded:
                truth.pending.append((truth.cause, entry))
            return removed

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Cache, "insert_key", recording_insert)
            patch.setattr(Invalidator, "_affected_pages_indexed", attributed)
            patch.setattr(Invalidator, "process_writes", then_containment)
            patch.setattr(PageCache, "invalidate", noted)
            yield self

    def after_write_request(self, caches) -> None:
        """Classify this request's dooms, then audit every resident
        entry reading a table the request wrote."""
        for cause, entry in self.pending:
            self.dooms[cause, self.changed(entry)] += 1
        self.pending.clear()
        written, self.written = self.written, set()
        for cache in caches:
            for entry in cache.pages.entries():
                known = self.recorded.get(id(entry))
                if known is None or id(entry) in self.stale:
                    continue
                _entry, rows = known
                for read, shown in zip(entry.dependencies, rows):
                    if read.template.tables & written and self.rows(read) != shown:
                        self.stale[id(entry)] = (
                            f"{entry.key}: {read.template.text} {read.values!r}"
                        )
                        break

    def before_read_request(self) -> None:
        # Capacity and expiry dooms of a read request are not writes'.
        self.pending.clear()


def facade_for(workload, policy: InvalidationPolicy):
    """``bench.workloads.build_facade``'s facade, at ``policy``."""
    kwargs = dict(workload.cache, policy=policy)
    if workload.app == "tpcw":
        from repro.apps.tpcw.app import standard_semantics

        kwargs["semantics"] = standard_semantics()
    return AutoWebCache(n_nodes=workload.nodes or 1, **kwargs)


def caches_of(awc) -> list:
    return [node.cache for node in awc.router.nodes()]


def replay(name: str, seed: int, count: int, policy: InvalidationPolicy):
    """Replay ``count`` requests of a bench workload under ``policy``."""
    workload = WORKLOADS[name]
    app, awc = build_app(workload), facade_for(workload, policy)
    awc.install(app.servlet_classes)
    truth = GroundTruth(app.database)
    carts: dict[int, str] = {}
    requests = generate(workload, seed, "warmup", WARMUP) + generate(
        workload, seed, "closed", count
    )
    try:
        with truth.watching():
            for request in requests:
                if not request.is_write:
                    truth.before_read_request()
                params = request.resolved_params(carts)
                response = app.container.handle(
                    HttpRequest(request.method, request.uri, dict(params))
                )
                request.observe(response.body.encode(), carts)
                if request.is_write:
                    truth.after_write_request(caches_of(awc))
    finally:
        awc.uninstall()
        close = getattr(awc.cache, "close", None)
        if close is not None:
            close()
    snapshot = awc.stats.snapshot()
    return truth, snapshot.get("cluster", snapshot)


@pytest.fixture(scope="module")
def replays():
    return {
        (name, policy): replay(name, seed, count, policy)
        for name, seed, count in REPLAYS
        for policy in InvalidationPolicy
    }


@pytest.mark.parametrize("name", [name for name, _seed, _count in REPLAYS])
@pytest.mark.parametrize("policy", list(InvalidationPolicy), ids=lambda p: p.value)
def test_no_entry_outlives_a_change_to_its_rows(replays, name, policy):
    truth, _stats = replays[name, policy]
    assert truth.recorded, "the replay stored nothing"
    assert not truth.stale, sorted(truth.stale.values())[:5]


@pytest.mark.parametrize("name", [name for name, _seed, _count in REPLAYS])
def test_the_row_witness_dooms_no_more_than_the_paper(replays, name):
    witness = replays[name, InvalidationPolicy.ROW_WITNESS][1]
    extra = replays[name, InvalidationPolicy.EXTRA_QUERY][1]
    assert witness["invalidated_pages"] <= extra["invalidated_pages"]
    if name == "rubis_bidding":
        # A bid's UPDATE sets columns the search pages only display.
        assert witness["witness_skips"] > 0
        assert witness["invalidated_pages"] < extra["invalidated_pages"]


def test_partner_probes_spare_what_a_new_row_cannot_join(replays):
    """On bidding a new user joins no bid, item or comment yet and a
    new item reaches a region page only through its seller: under
    ROW_WITNESS no registration dooms a page for nothing, and what
    unchanged dooms remain are few (new items tying on ``end_date`` on
    the category pages).  TPC-W has no join a probe could use, so its
    writes probe nothing."""
    truth, stats = replays["rubis_bidding", InvalidationPolicy.ROW_WITNESS]
    users = [cause for cause, _changed in truth.dooms if "INTO users" in cause]
    assert all(truth.dooms[cause, False] == 0 for cause in users)
    unchanged = sum(n for (_cause, changed), n in truth.dooms.items() if not changed)
    assert unchanged <= 0.15 * sum(truth.dooms.values())
    assert stats["partner_skips"] > 0 and stats["partner_probes"] > 0
    _truth, ring = replays["tpcw_shopping_ring4", InvalidationPolicy.ROW_WITNESS]
    assert ring["partner_probes"] == ring["partner_skips"] == 0
    for policy in (InvalidationPolicy.EXTRA_QUERY, InvalidationPolicy.WHERE_MATCH):
        assert replays["rubis_bidding", policy][1]["partner_probes"] == 0


def test_report(replays):
    """Writes the precision table: dooms per rung and write template,
    and how many of them left every result of the entry unchanged.
    Only order-free counts: which pages a write dooms is a set, while
    how many instances it tests on the way depends on template order."""
    tables = []
    for name, seed, count in REPLAYS:
        rows = []
        for policy in InvalidationPolicy:
            truth, _stats = replays[name, policy]
            causes = sorted({cause for cause, _changed in truth.dooms})
            total = sum(truth.dooms.values())
            unchanged = sum(
                n for (_cause, changed), n in truth.dooms.items() if not changed
            )
            rows.append(
                [
                    policy.value,
                    "(all)",
                    total,
                    unchanged,
                    _share(unchanged, total),
                    len(truth.stale),
                ]
            )
            for cause in causes:
                idle = truth.dooms[cause, False]
                doomed = truth.dooms[cause, True] + idle
                rows.append(["", _short(cause), doomed, idle, _share(idle, doomed), ""])
        tables.append(
            render_table(
                f"Invalidation ground truth: {name}, seed {seed}, "
                f"{WARMUP} warm-up + {count} requests",
                ["rung", "write template", "dooms", "unchanged",
                 "unchanged share", "stale entries"],
                rows,
            )
        )
    RESULTS.write_text("\n\n".join(tables) + "\n")
    assert RESULTS.read_text().count("Invalidation ground truth") == len(REPLAYS)


def _share(part: int, whole: int) -> str:
    return f"{part / whole:.3f}" if whole else "-"


def _short(sql: str, width: int = 60) -> str:
    return sql if len(sql) <= width else sql[: width - 3] + "..."


# ---------------------------------------------------------------------------
# A key the database generates after the page was cached
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", list(InvalidationPolicy), ids=lambda p: p.value)
def test_a_page_for_a_user_not_yet_registered_dies_with_the_registration(policy):
    """``put_bid`` for user N caches "None" while N does not exist; the
    registration that creates N omits the key (the database generates
    it), so only the stored row says the new user is N."""
    app = build_rubis(RubisDataset(n_users=20, n_items=30))
    awc = AutoWebCache(policy=policy)
    awc.install(app.servlet_classes)
    truth = GroundTruth(app.database)
    future = app.database.query("SELECT MAX(id) FROM users").scalar() + 1
    uri = "/rubis/put_bid"
    try:
        with truth.watching():
            for _ in range(2):
                page = app.container.get(uri, {"item": "1", "user": str(future)})
                assert page.body.count("<p>None: current bid") == 1
            assert awc.stats.hits == 1
            app.container.post(
                "/rubis/register_user",
                {"firstname": "Z", "lastname": "Z", "nickname": "zz_new_user",
                 "region": "1"},
            )
            truth.after_write_request(caches_of(awc))
            page = app.container.get(uri, {"item": "1", "user": str(future)})
    finally:
        awc.uninstall()
    assert not truth.stale, sorted(truth.stale.values())
    assert "<p>zz_new_user: current bid" in page.body
