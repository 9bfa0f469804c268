"""Command-line interface: run any paper experiment from the shell.

    python -m repro list
    python -m repro fig13 --clients 100,400 --warmup 30 --duration 90
    python -m repro fig17
    python -m repro codesize
    python -m repro run --app tpcw --clients 250 --policy where-match
    python -m repro run --app rubis --policy row-witness
    python -m repro differential --policy row-witness

Prints the same tables the benchmark suite writes to
``benchmarks/results/``; timing flags default to quick settings so the
CLI is interactive-friendly.  Every subcommand is one row of
:data:`COMMANDS`; the parser, ``list`` and dispatch are derived from it.
"""

from __future__ import annotations

import argparse
from functools import partial
from typing import Callable, NamedTuple

from repro.cache.analysis import InvalidationPolicy
from repro.harness.experiments import (
    ExperimentDefaults,
    RunSpec,
    improvement_percent,
    run_cell,
    run_cluster_cell,
    run_response_time_curve,
)
from repro.harness.profiles import EXTENDED
from repro.harness.reporting import render_table

_POLICIES = {policy.value: policy for policy in InvalidationPolicy}


def _parse_clients(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _defaults(args: argparse.Namespace) -> ExperimentDefaults:
    return ExperimentDefaults(warmup=args.warmup, duration=args.duration)


def _timing(clients: str, window: bool | None = False):
    """Argument setup shared by the figure commands and ``run``: client
    counts and the simulated warm-up / measurement windows.  ``window``
    fixes the TPC-W BestSeller window; None offers it as ``--window``."""

    def setup(p: argparse.ArgumentParser) -> None:
        p.add_argument("--clients", default=clients,
                       help="comma-separated client counts")
        p.add_argument("--warmup", type=float, default=30.0)
        p.add_argument("--duration", type=float, default=90.0)
        if window is None:
            p.add_argument("--window", action="store_true",
                           help="enable the BestSeller 30s window (fig15)")
        else:
            p.set_defaults(window=window)

    return setup


def _cmd_list(_args: argparse.Namespace) -> str:
    rows = [[command.name, command.help] for command in COMMANDS]
    return render_table("Available commands", ["command", "runs"], rows)


def _cmd_curve(args: argparse.Namespace, app: str) -> str:
    defaults = _defaults(args)
    clients = _parse_clients(args.clients)
    no_cache = run_response_time_curve(
        RunSpec(app=app, cached=False, defaults=defaults), clients
    )
    cached = run_response_time_curve(
        RunSpec(
            app=app,
            cached=True,
            best_seller_window=args.window,
            defaults=defaults,
        ),
        clients,
    )
    rows = [
        [
            nc.n_clients,
            round(nc.mean_ms, 2),
            round(cc.mean_ms, 2),
            round(improvement_percent(nc.mean_ms, cc.mean_ms), 1),
            round(cc.hit_rate, 3),
        ]
        for nc, cc in zip(no_cache, cached)
    ]
    title = {
        "rubis": "Figure 13: RUBiS response time vs clients",
        "tpcw": "Figure 14/15: TPC-W response time vs clients",
    }[app]
    return render_table(
        title,
        ["clients", "No cache (ms)", "AutoWebCache (ms)", "improv %", "hit rate"],
        rows,
    )


def _cmd_breakdown(args: argparse.Namespace, app: str) -> str:
    defaults = _defaults(args)
    n_clients = _parse_clients(args.clients)[0]
    spec = RunSpec(
        app=app,
        cached=True,
        best_seller_window=(app == "tpcw"),
        defaults=defaults,
    )
    outcome = run_cell(spec, n_clients)
    metrics = outcome.result.metrics
    total = metrics.overall.count
    rows = []
    for uri, series in sorted(metrics.by_uri.items()):
        detail = metrics.detail.get(uri, {})
        rows.append(
            [
                uri,
                round(100.0 * series.count / total, 1),
                detail.get("hit", 0),
                detail.get("semantic", 0),
                detail.get("cold", 0),
                detail.get("invalidation", 0),
                detail.get("uncacheable", 0),
                round(series.mean * 1000.0, 2),
            ]
        )
    title = (
        f"Figure {'16/18' if app == 'rubis' else '17/19'}: "
        f"{app} per-request breakdown ({n_clients} clients)"
    )
    return render_table(
        title,
        ["request", "% reqs", "hits", "sem", "cold", "inval", "uncach", "mean ms"],
        rows,
    )


def _differential_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=3,
                   help="number of consecutive seeds to run")
    p.add_argument("--rounds", type=int, default=60)
    p.add_argument("--pages", type=int, default=80)
    p.add_argument("--policy", choices=sorted(_POLICIES),
                   default=None,
                   help="one policy (default: every rung; the "
                        "catalog-free arm runs row-witness)")


def _cmd_differential(args: argparse.Namespace) -> tuple[str, int]:
    from repro.harness.differential import run_differential

    policies = [_POLICIES[args.policy]] if args.policy else list(InvalidationPolicy)
    # One arm per policy and ring size, plus one catalog-free arm.
    arms = [(policy, n_nodes, True) for policy in policies for n_nodes in (1, 4)]
    arms.append((_POLICIES.get(args.policy, InvalidationPolicy.ROW_WITNESS), 1, False))
    rows, problems, ring_of_one = [], [], {}
    for policy, n_nodes, catalog in arms:
        for seed in range(args.seed, args.seed + args.seeds):
            result = run_differential(
                seed, args.rounds, args.pages, policy, n_nodes, catalog
            )
            arm = f"{policy.value}, {n_nodes} nodes, catalog {catalog}, seed {seed}"
            failed = result.mismatches + [
                f"guard unmet: {name}" for name in result.unmet_guards()
            ]
            # Sharding must be invisible: same seed, same dooms.
            counts = (result.pages_doomed, result.closure_doomed)
            one = ring_of_one.setdefault((policy, catalog, seed), counts)
            if counts != one:
                failed.append(f"dooms {counts} differ from 1 node's {one}")
            problems += [f"{arm}: {text}" for text in failed]
            rows.append([
                policy.value, n_nodes, "yes" if catalog else "no", seed,
                "ok" if not failed else "MISMATCH" if not result.ok else "FAILED",
                result.writes_tested, result.pages_doomed, result.closure_doomed,
                f"{result.templates_skipped}/{result.instances_skipped}",
                result.templates_skipped_by_lineage,
                f"{result.never_read_probes}/{result.never_read_doomed}",
                f"{result.witness_skips_brute}/{result.witness_skips_indexed}",
                f"{result.partner_skips_brute}/{result.partner_skips_indexed}",
                result.never_excused_checked,
                "/".join(str(count) for count in result.perturbed.values()),
                f"{result.pair_analyses_brute}/{result.pair_analyses_indexed}",
            ])
    table = render_table(
        "Differential: executed rounds, ring vs brute force + reference closure",
        ["policy", "nodes", "catalog", "seed", "verdict", "writes", "doomed",
         "via closure", "skipped (tmpl/inst)", "lineage skipped",
         "probes (fired/doomed)", "witness skips (brute/ring)",
         "partner skips (brute/ring)", "never-excused checked",
         "perturbed (image/incomplete/off-key/probe)",
         "pair analyses (brute/ring)"],
        rows,
    )
    return "\n".join([table, *problems]), (1 if problems else 0)


def _cmd_codesize(_args: argparse.Namespace) -> str:
    from repro.harness.codesize import measure_components

    rows = [
        [c.name, c.files, c.lines, c.code_lines] for c in measure_components()
    ]
    return render_table(
        "Figure 20: code size by component",
        ["component", "files", "total lines", "code lines"],
        rows,
    )


def _cluster_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", default="1,2,4,8",
                   help="comma-separated node counts")
    p.add_argument("--clients", default="700",
                   help="client load (first value used)")
    p.add_argument("--warmup", type=float, default=20.0)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--app", choices=["rubis", "tpcw"], default="rubis")
    p.add_argument(
        "--stock-costs", action="store_true",
        help="use the stock per-app cost model instead of the "
             "saturation-calibrated scaling model",
    )


def _cmd_cluster(args: argparse.Namespace) -> str:
    from repro.sim.cluster import CLUSTER_SCALING_COST_MODEL

    defaults = _defaults(args)
    node_counts = _parse_clients(args.nodes)
    n_clients = _parse_clients(args.clients)[0]
    cost_model = None if args.stock_costs else CLUSTER_SCALING_COST_MODEL
    rows = []
    for n_nodes in node_counts:
        outcome = run_cluster_cell(
            n_nodes,
            n_clients,
            app=args.app,
            defaults=defaults,
            cost_model=cost_model,
        )
        result = outcome.result
        rows.append(
            [
                n_nodes,
                round(outcome.throughput, 1),
                round(outcome.mean_ms, 1),
                round(result.metrics.overall.percentile(95) * 1000, 1),
                round(outcome.hit_rate, 3),
                round(result.app_utilization, 3),
                round(result.db_utilization, 3),
                result.bus_messages,
                result.cluster_snapshot["cluster"]["invalidated_pages"],
            ]
        )
    return render_table(
        f"Cluster scaling: {args.app}, {n_clients} clients",
        ["nodes", "thr (r/s)", "mean ms", "p95 ms", "hit rate",
         "node util", "db util", "bus msgs", "invalidated"],
        rows,
    )


def _obs_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--requests", type=int, default=24,
                   help="scripted request rounds to drive")
    p.add_argument("--nodes", type=int, default=1,
                   help="cache nodes (one node is the one-node ring)")
    p.add_argument("--traces", type=int, default=8,
                   help="trace ring-buffer capacity / display limit")
    p.add_argument("--view", choices=["summary", "metrics", "traces", "all"],
                   default="summary")


def _cmd_obs(args: argparse.Namespace) -> str:
    """A scripted, observability-woven RUBiS run; prints the exposition.

    Drives a small deterministic request mix (item views, bid history,
    a bid every few rounds) through a cache with the tracing and
    metrics aspects woven alongside, then renders whichever view was
    asked for: the latency-histogram summary plus protocol counters and
    the per-write-template invalidation churn, the Prometheus text
    exposition, or the buffered traces.
    """
    from repro.apps.rubis.app import build_rubis
    from repro.cache.autowebcache import AutoWebCache
    from repro.harness.reporting import (
        render_doom_templates,
        render_histogram_summary,
        render_membership,
        render_protocol_counters,
    )
    from repro.obs import Observability, render_metrics, render_traces

    app = build_rubis()
    obs = Observability(capacity=args.traces)
    awc = AutoWebCache(**EXTENDED, n_nodes=args.nodes)
    awc.install(app.container.servlet_classes, extra_aspects=obs.aspects)
    obs.weave_infrastructure()
    try:
        for i in range(args.requests):
            item = str(i % 5 + 1)
            app.container.get("/rubis/view_item", {"item": item})
            app.container.get("/rubis/view_bid_history", {"item": item})
            if i % 4 == 3:
                app.container.post(
                    "/rubis/store_bid",
                    {"item": item, "user": "1", "bid": str(100.0 + i)},
                )
    finally:
        obs.unweave_infrastructure()
        awc.uninstall()
    snapshot = awc.cluster_snapshot()
    sections: list[str] = []
    if args.view in ("summary", "all"):
        sections.append(
            render_histogram_summary("Woven phase latency (derived)", obs.hub)
        )
        sections.append(
            render_protocol_counters("Invalidation protocol work", snapshot)
        )
        sections.append(
            render_doom_templates("Invalidation churn by template", snapshot)
        )
        sections.append(
            render_membership(
                "Gossip membership (router view)", snapshot["membership"]
            )
        )
    if args.view in ("metrics", "all"):
        sections.append(
            render_metrics(
                obs.hub, obs.tracer, cache_snapshot=snapshot
            ).rstrip("\n")
        )
    if args.view in ("traces", "all"):
        sections.append(render_traces(obs.tracer, limit=args.traces).rstrip("\n"))
    return "\n\n".join(sections)


def _hitpath_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--connections", type=int, default=8,
                   help="concurrent client connections")
    p.add_argument("--iterations", type=int, default=200,
                   help="GET rounds per connection")
    p.add_argument("--pages", type=int, default=4,
                   help="distinct warmed item pages to cycle over")


def _cmd_hitpath(args: argparse.Namespace) -> str:
    """Drive both serving tiers over one warmed woven RUBiS app and
    print the throughput comparison (``benchmarks/results/
    hitpath_throughput.txt`` is the benchmark-suite rendering of the
    same report)."""
    from repro.harness.hitpath import (
        render_hitpath_report,
        run_hitpath_comparison,
    )

    comparison = run_hitpath_comparison(
        n_connections=args.connections,
        iterations=args.iterations,
        n_pages=args.pages,
    )
    return render_hitpath_report(comparison)


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="print the JSON report instead of text")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="also write the JSON report to PATH")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline file (default: "
                        "staticcheck-baseline.json at the repo root)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline; every finding is active")


def _cmd_check(args: argparse.Namespace) -> tuple[str, int]:
    """Run the whole-program consistency linter over the repository.

    Exit status is 0 iff every finding is baselined (or there are
    none); CI runs this via ``make check``.
    """
    import json
    from pathlib import Path

    from repro.staticcheck import run_check

    if args.no_baseline:
        baseline: object = None
    elif args.baseline:
        baseline = Path(args.baseline)
    else:
        baseline = "auto"
    report = run_check(baseline_path=baseline)
    payload = json.dumps(report.to_json(), indent=2)
    if args.json_out:
        out = Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(payload + "\n")
    return (payload if args.json else report.render_text()), report.exit_code


def _run_arguments(p: argparse.ArgumentParser) -> None:
    _timing("200", window=None)(p)
    p.add_argument("--app", choices=["rubis", "tpcw"], default="rubis")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--policy", choices=sorted(_POLICIES), default="extra-query")
    p.add_argument("--replacement", default="unbounded",
                   choices=["unbounded", "lru"])
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--max-bytes", type=int, default=None)
    p.add_argument("--weak-ttl", type=float, default=None)


def _cmd_run(args: argparse.Namespace) -> str:
    defaults = _defaults(args)
    spec = RunSpec(
        app=args.app,
        cached=not args.no_cache,
        policy=_POLICIES[args.policy],
        best_seller_window=args.window,
        replacement=args.replacement,
        capacity=args.capacity,
        max_bytes=args.max_bytes,
        weak_ttl=args.weak_ttl,
        defaults=defaults,
    )
    n_clients = _parse_clients(args.clients)[0]
    outcome = run_cell(spec, n_clients)
    rows = [
        ["configuration", spec.label],
        ["clients", n_clients],
        ["requests measured", outcome.result.metrics.request_count],
        ["mean response (ms)", round(outcome.mean_ms, 2)],
        ["p50 response (ms)",
         round(outcome.result.metrics.overall.percentile(50) * 1000, 2)],
        ["p90 response (ms)",
         round(outcome.result.metrics.overall.percentile(90) * 1000, 2)],
        ["p95 response (ms)",
         round(outcome.result.metrics.overall.percentile(95) * 1000, 2)],
        ["p99 response (ms)",
         round(outcome.result.metrics.overall.percentile(99) * 1000, 2)],
        ["hit rate", round(outcome.hit_rate, 3)],
        ["app utilisation", round(outcome.result.app_utilization, 3)],
        ["db utilisation", round(outcome.result.db_utilization, 3)],
        ["errors", outcome.result.errors],
    ]
    if outcome.cache_stats is not None:
        # One lock-consistent read of the cache counters, not a field
        # walk over a live object.
        cache_snapshot = outcome.cache_stats.snapshot()["cluster"]
        rows.append(["pages invalidated", cache_snapshot["invalidated_pages"]])
        rows.append(["stale inserts", cache_snapshot["stale_inserts"]])
        from repro.harness.reporting import PROTOCOL_COUNTERS

        for counter in PROTOCOL_COUNTERS:
            if counter in cache_snapshot:
                rows.append([counter, cache_snapshot[counter]])
    return render_table(f"Custom cell: {args.app}", ["metric", "value"], rows)


class Command(NamedTuple):
    """One ``python -m repro`` subcommand."""

    name: str
    help: str
    #: Adds the subcommand's arguments to its parser (None: it has none).
    arguments: Callable[[argparse.ArgumentParser], None] | None
    #: Runs it: the text to print, or (text, exit status).
    handler: Callable[[argparse.Namespace], str | tuple[str, int]]


COMMANDS: tuple[Command, ...] = (
    Command("list", "list the available commands", None, _cmd_list),
    Command("fig13", "RUBiS response time vs clients (bidding mix)",
            _timing("100,400,700,1000"), partial(_cmd_curve, app="rubis")),
    Command("fig14", "TPC-W response time vs clients (shopping mix)",
            _timing("50,150,250,400", window=None),
            partial(_cmd_curve, app="tpcw")),
    Command("fig15", "TPC-W BestSeller 30s semantic window",
            _timing("50,150,250,400", window=True),
            partial(_cmd_curve, app="tpcw")),
    Command("fig16", "RUBiS per-request hits/misses", _timing("1000"),
            partial(_cmd_breakdown, app="rubis")),
    Command("fig17", "TPC-W per-request hits/misses", _timing("400"),
            partial(_cmd_breakdown, app="tpcw")),
    Command("codesize", "Figure 20 code-size comparison", None, _cmd_codesize),
    Command("differential", "indexed vs brute-force invalidation equivalence",
            _differential_arguments, _cmd_differential),
    Command("cluster", "sharded-tier scaling curve (throughput vs nodes)",
            _cluster_arguments, _cmd_cluster),
    Command("obs", "observability-woven scripted run (metrics + traces)",
            _obs_arguments, _cmd_obs),
    Command("hitpath", "threaded vs asyncio hit-path throughput comparison",
            _hitpath_arguments, _cmd_hitpath),
    Command("check", "whole-program consistency linter (staticcheck)",
            _check_arguments, _cmd_check),
    Command("run", "one custom configuration cell", _run_arguments, _cmd_run),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AutoWebCache reproduction: experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        if command.arguments is not None:
            command.arguments(p)
        p.set_defaults(handler=command.handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    output = args.handler(args)
    output, status = output if isinstance(output, tuple) else (output, 0)
    print(output)
    return status
