"""Metric registry, per-round computation, span analysis, aggregation.

Names are final: later issues cite ``<workload>/<metric>``.  Layer
prefixes are the ``src/repro`` package names.

Every time a user would feel -- throughput, latency, CPU per request,
set-up -- is reported **at reference CPU speed**: the raw reading times
or over the phase's thermometer slowdown (``bench/thermometer.py``).
The raw closed-loop throughput and the slowdown itself are reported
beside them as ``client.*``.  Rounds combine by their median: after the
slowdown is divided out the leftover noise is two-sided.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass

from bench.client import Child, PhaseResult
from bench.thermometer import slowdown
from bench.workloads import Workload


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    what: str
    #: End-to-end only: the share of the baseline by which the metric may
    #: worsen before ``--compare`` (and the driver) call it a regression.
    bound: float | None = None
    #: "writes" / "cluster": defined only on workloads with that property.
    only: str | None = None
    #: True when the value comes from the traced round's spans.
    traced: bool = False


def _e2e(name, unit, better, bound, what, **kw) -> Metric:
    return Metric(name, unit, better, what, bound=bound, **kw)


#: Bounds are what this sandbox can resolve, not what one would like: at
#: reference speed the run-to-run spread of the times is 3-15 % depending
#: on the hour, so their bound is the contract's ceiling (see README).
END_TO_END = [
    _e2e("throughput_rps", "req/s", "higher", 0.25,
         "closed-loop answered requests / wall time, at reference speed"),
    _e2e("paced_p50_ms", "ms", "lower", 0.25,
         "paced phase median latency from the due time, at reference speed"),
    _e2e("paced_write_p50_ms", "ms", "lower", 0.25,
         "paced phase median over POSTs (invalidate-before-respond)",
         only="writes"),
    _e2e("server_cpu_ms_per_request", "ms", "lower", 0.25,
         "child utime+stime over the closed-loop phase / requests,"
         " at reference speed"),
    _e2e("db_queries_per_request", "count", "lower", 0.20,
         "Database.stats.queries over the closed-loop phase / requests"),
    _e2e("error_rate", "ratio", "lower", 0.0,
         "(non-2xx + connection errors + short bodies) / attempted"),
    _e2e("setup_s", "s", "lower", 0.25,
         "child spawn -> listening (import, build, populate, weave, bind),"
         " at reference speed"),
    _e2e("peak_rss_mb", "MB", "lower", 0.15,
         "child VmHWM at the end of the round"),
]


#: What ``BENCHMARK.json`` lists under ``end_to_end`` for the PR driver,
#: which wants a metric on every workload, never 0, and with a
#: seed-to-seed spread within its bound.  The paced latencies spread
#: 10-21 % over ten seeds on this host (idle wake-up time, which no
#: thermometer sees), too close to the 25 % ceiling; they and
#: ``error_rate`` are listed under ``per_layer`` there, and stay gated by
#: ``run.py --compare``.
DRIVER_GATED = (
    "throughput_rps",
    "server_cpu_ms_per_request",
    "db_queries_per_request",
    "setup_s",
    "peak_rss_mb",
)


def _span(name, better, what, unit="us", **kw) -> Metric:
    return Metric(name, unit, better, what, traced=True, **kw)


PER_LAYER = [
    # -- web ---------------------------------------------------------------
    Metric("web.fast_path_share", "ratio", "higher",
           "fast_hits / (fast_hits + slow_requests), closed-loop phase"),
    _span("web.fast_path_self_us", "lower",
          "loop-thread time per fast-path request outside fast_check"),
    _span("web.render_self_us", "lower",
          "AsyncCachedServer.render self time per slow request"),
    _span("web.executor_wait_us", "lower",
          "executor.submit -> start wait per slow request"),
    _span("web.wire_builds_per_fast_hit", "lower",
          "build_wire calls / fast hits (rises with dooms)", unit="ratio"),
    # -- aop ---------------------------------------------------------------
    Metric("aop.weave_s", "s", "lower", "awc.install() inside set-up"),
    _span("aop.servlet_chain_self_us", "lower",
          "woven do_get/do_post minus raw servlet and facade calls"),
    _span("aop.jdbc_chain_self_us", "lower",
          "woven execute_query/update minus driver, templateize, facade"),
    _span("aop.fragment_chain_self_us", "lower",
          "woven PageComposer.fragment/hole minus raw render and facade"),
    _span("aop.advised_calls_per_request", "lower",
          "woven join-point executions / requests", unit="count"),
    # -- cache -------------------------------------------------------------
    _span("cache.fast_check_us", "lower", "Cache.fast_check per call"),
    _span("cache.check_us", "lower", "Cache.check (woven page check) per call"),
    _span("cache.check_key_us", "lower",
          "Cache.check_key (fragment/method check) per call"),
    _span("cache.insert_us", "lower",
          "insert / insert_key per call (deps, staleness check, eviction)"),
    _span("cache.flight_us", "lower",
          "join_flight/begin_window + finish_flight/end_window per miss"),
    _span("cache.apply_writes_us", "lower",
          "process_write_request per write request (all nodes)",
          only="writes"),
    Metric("cache.hit_ratio", "ratio", "higher", "CacheStats hit rate"),
    Metric("cache.misses_invalidation_share", "ratio", "lower",
           "invalidation misses / misses"),
    Metric("cache.misses_capacity_share", "ratio", "lower",
           "capacity misses / misses"),
    Metric("cache.hits_per_insert", "ratio", "higher", "hits / inserts"),
    Metric("cache.evictions_per_insert", "ratio", "lower", "evictions / inserts"),
    Metric("cache.invalidated_pages_per_write", "count", "lower",
           "pages doomed / write requests", only="writes"),
    Metric("cache.pair_analyses_per_write", "count", "lower",
           "template-pair analyses / write requests", only="writes"),
    Metric("cache.intersection_tests_per_write", "count", "lower",
           "instance intersection tests / write requests", only="writes"),
    Metric("cache.extra_queries_per_write", "count", "lower",
           "pre-image queries / write requests", only="writes"),
    Metric("cache.index_skip_share", "ratio", "higher",
           "index+lineage skips / (skips + analyses + tests)", only="writes"),
    Metric("cache.stale_inserts", "count", "lower",
           "inserts discarded by the staleness check"),
    Metric("cache.coalesced_hits", "count", "higher",
           "misses served from another request's flight"),
    Metric("cache.resident_entries", "count", "lower", "entries at end of round"),
    Metric("cache.resident_bytes", "B", "lower", "body bytes at end of round"),
    # -- sql ---------------------------------------------------------------
    _span("sql.templateize_us", "lower", "templateize per call"),
    _span("sql.templateize_calls_per_request", "lower",
          "templateize calls / requests", unit="count"),
    _span("sql.parse_us", "lower", "parse_statement per call"),
    _span("sql.parse_calls_per_request", "lower",
          "parse_statement calls / requests", unit="count"),
    _span("sql.distinct_template_share", "higher",
          "distinct template texts / templateize calls", unit="ratio"),
    # -- db ----------------------------------------------------------------
    _span("db.query_us", "lower", "raw Statement.execute_query per call"),
    _span("db.update_us", "lower", "raw Statement.execute_update per call",
          only="writes"),
    Metric("db.updates_per_request", "count", "lower",
           "Database.stats.updates / requests", only="writes"),
    Metric("db.rows_examined_per_query", "count", "lower",
           "rows examined / queries"),
    Metric("db.rows_returned_per_query", "count", "lower",
           "rows returned / queries"),
    # -- apps --------------------------------------------------------------
    _span("apps.servlet_self_us", "lower",
          "raw servlet + fragment render minus driver calls, per servlet run"),
    Metric("apps.response_bytes_mean", "B", "lower", "mean response body"),
    # -- cluster -----------------------------------------------------------
    _span("cluster.router_self_us", "lower",
          "ClusterRouter facade self time / requests", only="cluster"),
    _span("cluster.bus_publish_us", "lower",
          "InvalidationBus.publish per write", only="cluster"),
    Metric("cluster.deliveries_per_write", "count", "lower",
           "bus deliveries / publishes", only="cluster"),
    Metric("cluster.remote_dooms_per_write", "count", "lower",
           "pages doomed via the bus / publishes", only="cluster"),
    Metric("cluster.node_load_imbalance", "ratio", "lower",
           "max / mean lookups per node", only="cluster"),
    # -- client: health of the measurement itself -----------------------------
    Metric("client.late_p99_ms", "ms", "lower", "paced generator lateness, p99"),
    Metric("client.paced_p95_ms", "ms", "lower",
           "paced p95 at reference speed (10-50 % run-to-run: demoted, never gated)"),
    Metric("client.paced_p99_ms", "ms", "lower",
           "paced p99, raw (15-80 % run-to-run: never gated)"),
    Metric("client.paced_over_10ms_share", "ratio", "lower",
           "paced requests over 10 ms or failed / attempted"),
    Metric("client.closed_p50_ms", "ms", "lower", "closed-loop median latency, raw"),
    Metric("client.raw_throughput_rps", "req/s", "higher",
           "closed-loop throughput as the clock read it"),
    Metric("client.cpu_slowdown", "ratio", "lower",
           "thermometer: cost of fixed work on the child's CPU during the"
           " closed-loop phase / reference"),
    # -- trace -------------------------------------------------------------
    _span("trace.slow_request_us", "lower",
          "traced slow-path request: submit -> render returned"),
    _span("trace.self_sum_ratio", "higher",
          "sum of self times / slow-path request time (1 = well-formed)",
          unit="ratio"),
    _span("trace.overhead_ratio", "higher",
          "traced-round throughput / median untraced round", unit="ratio"),
] + [
    _span(f"{layer}.self_share", "lower",
          f"{layer} self time / traced slow-path request time", unit="ratio")
    for layer in ("web", "aop", "cache", "sql", "db", "apps", "cluster")
]

METRICS = {m.name: m for m in END_TO_END + PER_LAYER}


def applies(metric: Metric, workload: Workload) -> bool:
    if metric.only == "writes":
        return workload.writes
    if metric.only == "cluster":
        return bool(workload.nodes)
    return True


# -- per-round values ------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta(after: dict, before: dict) -> dict:
    """Numeric difference of two snapshots (nested dicts / lists)."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(value, before.get(key, {}))
        elif isinstance(value, list) and key in before:
            out[key] = [a - b for a, b in zip(value, before[key])]
        elif isinstance(value, (int, float)):
            out[key] = value - before.get(key, 0)
    return out


def round_values(
    child: Child,
    closed: PhaseResult,
    paced: PhaseResult,
    before: dict,
    after_closed: dict,
    final: dict,
) -> dict[str, float]:
    """Every metric one round can give without spans.

    ``before`` / ``after_closed`` / ``final`` are the child's snapshots
    around the closed-loop and paced phases; their clocks also cut the
    thermometer readings into per-phase slowdowns.
    """
    d = _delta(after_closed, before)
    cache, server, db = d["cache"], d["server"], d["db"]
    readings = final["thermometer"]
    hello = child.hello
    slow_setup = slowdown(readings, child.spawned_ns, hello["t_ns"])
    slow_closed = slowdown(readings, before["t_ns"], after_closed["t_ns"])
    slow_paced = slowdown(readings, after_closed["t_ns"], final["t_ns"])
    answered = closed.attempted - closed.failed
    raw_throughput = ratio(answered, closed.wall_s)
    writes = cache["write_requests"]
    skips = (
        cache["templates_skipped_by_index"]
        + cache["instances_skipped_by_index"]
        + cache["templates_skipped_by_lineage"]
    )
    values = {
        "throughput_rps": raw_throughput * slow_closed,
        "server_cpu_ms_per_request": ratio(
            d["cpu_s"] * 1000.0, closed.attempted * slow_closed
        ),
        "db_queries_per_request": ratio(db["queries"], closed.attempted),
        "error_rate": ratio(
            closed.failed + paced.failed, closed.attempted + paced.attempted
        ),
        "setup_s": child.setup_s / slow_setup,
        "peak_rss_mb": final["peak_rss_kb"] / 1024.0,
        "web.fast_path_share": ratio(
            server["fast_hits"], server["fast_hits"] + server["slow_requests"]
        ),
        "aop.weave_s": hello["weave_s"] / slow_setup,
        "cache.hit_ratio": ratio(
            cache["hits"] + cache["semantic_hits"],
            cache["hits"] + cache["semantic_hits"] + cache["misses"],
        ),
        "cache.misses_invalidation_share": ratio(
            cache["misses_invalidation"], cache["misses"]
        ),
        "cache.misses_capacity_share": ratio(cache["misses_capacity"], cache["misses"]),
        "cache.hits_per_insert": ratio(cache["hits"], cache["inserts"]),
        "cache.evictions_per_insert": ratio(cache["evictions"], cache["inserts"]),
        "cache.invalidated_pages_per_write": ratio(cache["invalidated_pages"], writes),
        "cache.pair_analyses_per_write": ratio(cache["pair_analyses"], writes),
        "cache.intersection_tests_per_write": ratio(
            cache["intersection_tests"], writes
        ),
        "cache.extra_queries_per_write": ratio(cache["extra_queries"], writes),
        "cache.index_skip_share": ratio(
            skips, skips + cache["pair_analyses"] + cache["intersection_tests"]
        ),
        "cache.stale_inserts": cache["stale_inserts"],
        "cache.coalesced_hits": cache["coalesced_hits"],
        "cache.resident_entries": final["resident_entries"],
        "cache.resident_bytes": final["resident_bytes"],
        "db.updates_per_request": ratio(db["updates"], closed.attempted),
        "db.rows_examined_per_query": ratio(db["rows_examined"], db["queries"]),
        "db.rows_returned_per_query": ratio(db["rows_returned"], db["queries"]),
        "apps.response_bytes_mean": ratio(closed.body_bytes, answered),
        "client.paced_over_10ms_share": ratio(
            sum(1 for ms in paced.latencies_ms if ms > 10.0) + paced.failed,
            paced.attempted,
        ),
        "client.raw_throughput_rps": raw_throughput,
        "client.cpu_slowdown": slow_closed,
    }
    if closed.latencies_ms:
        values["client.closed_p50_ms"] = percentile(closed.latencies_ms, 0.50)
    if paced.latencies_ms:
        values["paced_p50_ms"] = percentile(paced.latencies_ms, 0.50) / slow_paced
        values["client.paced_p95_ms"] = percentile(paced.latencies_ms, 0.95) / slow_paced
        values["client.paced_p99_ms"] = percentile(paced.latencies_ms, 0.99)
        values["client.late_p99_ms"] = percentile(paced.late_ms, 0.99)
    if paced.write_latencies_ms:
        values["paced_write_p50_ms"] = (
            percentile(paced.write_latencies_ms, 0.50) / slow_paced
        )
    if "bus" in d:
        published = d["bus"]["published"]
        lookups = d["node_lookups"]
        values["cluster.deliveries_per_write"] = ratio(d["bus"]["delivered"], published)
        values["cluster.remote_dooms_per_write"] = ratio(
            d["bus"]["pages_invalidated"], published
        )
        values["cluster.node_load_imbalance"] = ratio(
            max(lookups), sum(lookups) / len(lookups)
        )
    return values


# -- spans -----------------------------------------------------------------------

LAYERS = ("web", "aop", "cache", "sql", "db", "apps", "cluster")
#: Flight bookkeeping; ``wait_flight`` is left out: it blocks on the leader.
FLIGHT_OPS = ("join_flight", "finish_flight", "begin_window", "end_window")


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class SpanTable:
    """Spans indexed for self-time and outermost-call queries."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        covered: dict[int, int] = defaultdict(int)
        for span_id, parent, _request, _name, start, end in spans:
            if parent:
                covered[parent] += end - start
        #: ns inside the span that no child span covers.
        self.self_ns = {
            span[0]: span[5] - span[4] - covered[span[0]] for span in spans
        }
        self.by_name: dict[str, list[list]] = defaultdict(list)
        for span in spans:
            self.by_name[span[3]].append(span)

    def parent_name(self, span: list) -> str | None:
        parent = self.by_id.get(span[1])
        return parent[3] if parent is not None else None

    def root(self, span: list) -> list:
        while span[1] and span[1] in self.by_id:
            span = self.by_id[span[1]]
        return span

    def named(self, *names: str, not_under: str | None = None) -> list[list]:
        """Spans with one of ``names``, minus those whose parent span is
        called ``not_under`` (an internal self-call, already counted)."""
        spans = [s for name in names for s in self.by_name.get(name, ())]
        if not_under is not None:
            spans = [s for s in spans if self.parent_name(s) != not_under]
        return spans

    def mean_us(self, spans: list[list]) -> float:
        return ratio(sum(s[5] - s[4] for s in spans), len(spans)) / 1000.0

    def self_us(self, spans: list[list]) -> float:
        return sum(self.self_ns[s[0]] for s in spans) / 1000.0

    def mean_self_us(self, spans: list[list]) -> float:
        return ratio(self.self_us(spans), len(spans))


def traced_values(
    spans: list[list], before: dict, final: dict, workload: Workload
) -> dict[str, float]:
    """Per-layer times and ratios from one traced round's spans.

    ``before`` is the snapshot taken when tracing was switched on and
    ``final`` the one taken when it stopped, so their difference counts
    exactly the requests the spans cover.
    """
    table = SpanTable(spans)
    d = _delta(final, before)
    fast, slow = d["server"]["fast_hits"], d["server"]["slow_requests"]
    requests = fast + slow
    writes = d["cache"]["write_requests"]
    offloads = table.named("web.offload")
    offloaded = {span[2] for span in offloads}
    fast_roots = [s for s in table.named("web.request") if s[2] not in offloaded]
    aop = table.named("aop.servlet", "aop.jdbc", "aop.fragment")
    templateize = table.named("sql.templateize")
    parses = table.named("sql.parse")
    flights = table.named(*(f"cache.{op}" for op in FLIGHT_OPS))
    misses = table.named("cache.join_flight", "cache.begin_window")
    inserts = table.named("cache.insert") + table.named(
        "cache.insert_key", not_under="cache.insert"
    )
    apply_writes = table.named("cache.process_write_request") + table.named(
        "cache.apply_writes", not_under="cache.process_write_request"
    )
    values = {
        "web.fast_path_self_us": table.mean_self_us(fast_roots),
        "web.render_self_us": table.mean_self_us(table.named("web.render")),
        "web.executor_wait_us": table.mean_us(table.named("web.executor_wait")),
        "web.wire_builds_per_fast_hit": ratio(len(table.named("web.build_wire")), fast),
        "aop.servlet_chain_self_us": table.mean_self_us(table.named("aop.servlet")),
        "aop.jdbc_chain_self_us": table.mean_self_us(table.named("aop.jdbc")),
        "aop.fragment_chain_self_us": table.mean_self_us(table.named("aop.fragment")),
        "aop.advised_calls_per_request": ratio(len(aop), requests),
        "cache.fast_check_us": table.mean_us(table.named("cache.fast_check")),
        "cache.check_us": table.mean_us(table.named("cache.check")),
        "cache.check_key_us": table.mean_us(
            table.named("cache.check_key", not_under="cache.check")
        ),
        "cache.insert_us": table.mean_us(inserts),
        "cache.flight_us": ratio(
            sum(s[5] - s[4] for s in flights) / 1000.0, len(misses)
        ),
        "cache.apply_writes_us": ratio(
            sum(s[5] - s[4] for s in apply_writes) / 1000.0, writes
        ),
        "sql.templateize_us": table.mean_us(templateize),
        "sql.templateize_calls_per_request": ratio(len(templateize), requests),
        "sql.parse_us": table.mean_us(parses),
        "sql.parse_calls_per_request": ratio(len(parses), requests),
        "sql.distinct_template_share": ratio(
            final.get("distinct_templates", 0), len(templateize)
        ),
        "db.query_us": table.mean_us(table.named("db.query")),
        "db.update_us": table.mean_us(table.named("db.update")),
        "apps.servlet_self_us": ratio(
            table.self_us(table.named("apps.servlet", "apps.fragment", "apps.hole")),
            len(table.named("apps.servlet")),
        ),
        "trace.slow_request_us": table.mean_us(offloads),
    }
    if workload.nodes:
        router = table.named(
            *(
                name
                for name in table.by_name
                if name.startswith("cluster.") and name != "cluster.bus_publish"
            )
        )
        values["cluster.router_self_us"] = ratio(table.self_us(router), requests)
        values["cluster.bus_publish_us"] = table.mean_us(
            table.named("cluster.bus_publish")
        )
    # Layer shares of the executor-side (slow-path) trees.
    slow_ns = sum(s[5] - s[4] for s in offloads)
    layer_ns: dict[str, int] = defaultdict(int)
    for span in spans:
        if table.root(span)[3] == "web.offload":
            layer_ns[span[3].split(".", 1)[0]] += table.self_ns[span[0]]
    for layer in LAYERS:
        values[f"{layer}.self_share"] = ratio(layer_ns[layer], slow_ns)
    values["trace.self_sum_ratio"] = ratio(sum(layer_ns.values()), slow_ns)
    # Span times too are reported at reference speed.
    slow = slowdown(final["thermometer"], before["t_ns"], final["t_ns"])
    for name in values:
        if name.endswith("_us"):
            values[name] /= slow
    return values


# -- aggregation and comparison --------------------------------------------------------


def round_spread(values: list[float]) -> float:
    """How far the rounds disagree, as a share of their median."""
    reported = statistics.median(values)
    if len(values) < 2 or not reported:
        return 0.0
    return (max(values) - min(values)) / abs(reported)


def summarise(
    workload: Workload, rounds: list[dict], traced: dict | None
) -> dict[str, dict]:
    """name -> {value (the median round), unit, kind, bound, better,
    rounds} for one workload."""
    out = {}
    for metric in METRICS.values():
        if not applies(metric, workload):
            continue
        source = [traced] if metric.traced else rounds
        samples = [r[metric.name] for r in source if r and metric.name in r]
        if not samples:
            continue
        out[metric.name] = {
            "value": statistics.median(samples),
            "unit": metric.unit,
            "kind": "end_to_end" if metric.bound is not None else "per_layer",
            "better": metric.better,
            "bound": metric.bound,
            "rounds": samples,
        }
    return out


def worse_by(metric: Metric, base: float, new: float) -> float:
    """Relative change, positive when ``new`` is worse than ``base``."""
    if base == 0:
        return 0.0 if new == 0 else float("inf") if new > 0 else float("-inf")
    change = (new - base) / abs(base)
    return -change if metric.better == "higher" else change


def compare(a: dict, b: dict) -> tuple[list[dict], bool]:
    """Rows of workload x end-to-end metric for two result files."""
    rows, regressed = [], False
    for name, result in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            continue
        for metric in END_TO_END:
            left = result["metrics"].get(metric.name)
            right = other["metrics"].get(metric.name)
            if left is None or right is None:
                continue
            diff = worse_by(metric, left["value"], right["value"])
            spread = max(round_spread(left["rounds"]), round_spread(right["rounds"]))
            if diff <= metric.bound:
                verdict = "ok"
            elif spread > metric.bound:
                verdict = "unresolved"
            else:
                verdict = "regressed"
                regressed = True
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "a": left["value"],
                    "b": right["value"],
                    "worse_by": diff,
                    "bound": metric.bound,
                    "round_spread": spread,
                    "verdict": verdict,
                }
            )
    return rows, regressed
