"""Ablation: whole-page caching vs fragment caching on hidden state.

TPC-W's Home and SearchRequest embed per-request hidden state (the
rotating ad banner, the random promo draw), so whole-page caching can
never serve them: every GET is recorded uncacheable and every query
under the page hits the database.  Fragment caching keeps the holes
fresh but serves the stable spans -- the per-customer greeting, the
per-item links, the search form -- from the cache.

Both arms run the identical deterministic request mix (same dataset
seed, therefore the same ad rotation) with periodic admin price updates
so the fragment arm also pays its share of invalidation churn.  The
figure reports, per interaction, the database queries and cache hits of
each arm; the win is hits appearing and queries dropping on pages the
whole-page arm cannot touch.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_DEFAULTS  # noqa: F401  (suite idiom)
from repro.apps.tpcw import TpcwDataset, build_tpcw
from repro.apps.tpcw.app import standard_semantics
from repro.cache.autowebcache import AutoWebCache
from repro.harness.profiles import EXTENDED, PAPER
from repro.harness.reporting import render_table

HOME_REQUESTS = 120
SEARCH_REQUESTS = 60
CUSTOMER_ROTATION = 8
#: One admin price update per this many Home GETs: dooms that item's
#: ``tpcw/item_link`` fragment, so the fragment arm re-renders it.
WRITE_EVERY = 15


def _dataset() -> TpcwDataset:
    return TpcwDataset(n_items=80, n_customers=40, n_orders=50, seed=17)


def _drive(profile) -> dict[str, dict[str, int]]:
    app = build_tpcw(_dataset())
    awc = AutoWebCache(**profile, semantics=standard_semantics())
    awc.install(app.servlet_classes)
    phases: dict[str, dict[str, int]] = {}

    def run_phase(name, requests):
        queries_before = app.database.stats.queries
        hits_before = awc.stats.hits
        uncacheable_before = awc.stats.uncacheable
        requests()
        phases[name] = {
            "queries": app.database.stats.queries - queries_before,
            "hits": awc.stats.hits - hits_before,
            "uncacheable": awc.stats.uncacheable - uncacheable_before,
        }

    def home_mix():
        for serial in range(HOME_REQUESTS):
            c_id = serial % CUSTOMER_ROTATION + 1
            response = app.container.get("/tpcw/home", {"c_id": str(c_id)})
            assert response.status == 200
            if serial % WRITE_EVERY == WRITE_EVERY - 1:
                app.container.post(
                    "/tpcw/admin_confirm",
                    {
                        "i_id": str(serial % 20 + 1),
                        "cost": f"{10 + serial}.0",
                        "image": "promo.png",
                    },
                )

    def search_mix():
        for _ in range(SEARCH_REQUESTS):
            response = app.container.get("/tpcw/search_request")
            assert response.status == 200

    try:
        run_phase("/tpcw/home", home_mix)
        run_phase("/tpcw/search_request", search_mix)
    finally:
        awc.uninstall()
    return phases


def _run():
    return {"whole-page": _drive(PAPER), "fragments": _drive(EXTENDED)}


def test_fragment_ablation(benchmark, figure_report):
    arms = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for phase in ("/tpcw/home", "/tpcw/search_request"):
        for arm in ("whole-page", "fragments"):
            cell = arms[arm][phase]
            rows.append(
                [phase, arm, cell["queries"], cell["hits"],
                 cell["uncacheable"]]
            )
    figure_report(
        "fragment_ablation",
        render_table(
            "Ablation: whole-page vs fragment caching on TPC-W hidden state",
            ["interaction", "arm", "db queries", "cache hits", "uncacheable"],
            rows,
        ),
    )
    whole, fragments = arms["whole-page"], arms["fragments"]
    for phase in ("/tpcw/home", "/tpcw/search_request"):
        # Whole-page caching never touches hidden-state pages at all...
        assert whole[phase]["hits"] == 0
        # ...while fragment caching serves their stable spans from the
        # cache (SearchRequest's form is SQL-free, so its win is pure
        # render savings; Home's fragments also spare their queries).
        assert fragments[phase]["hits"] > 0
        assert fragments[phase]["queries"] <= whole[phase]["queries"]
    assert fragments["/tpcw/home"]["queries"] < whole["/tpcw/home"]["queries"]
    # The pages themselves stay uncacheable in BOTH arms: the win comes
    # from fragments, never from caching hidden state whole.
    assert fragments["/tpcw/home"]["uncacheable"] == HOME_REQUESTS
    assert whole["/tpcw/home"]["uncacheable"] == HOME_REQUESTS
