"""CLI tests (quick settings only)."""

import argparse

import pytest

from repro.harness.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_list(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "fig13" in out and "codesize" in out
    # `list` names exactly the parser's subcommands, in the same order.
    listed = [line.split()[0] for line in out.splitlines()[4:] if line.strip()]
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert listed == list(subparsers.choices)


def test_codesize(capsys):
    code, out = run_cli(capsys, "codesize")
    assert code == 0
    assert "cache-library" in out
    assert "weaving-rules" in out


def test_differential_at_the_row_witness_rung(capsys):
    code, out = run_cli(
        capsys, "differential", "--policy", "row-witness", "--seeds", "1",
        "--rounds", "30", "--pages", "20",
    )
    assert code == 0
    assert "Differential: executed rounds, ring vs brute force" in out
    assert "MISMATCH" not in out
    # one node, four nodes, catalog-free
    assert out.count("0     ok") == 3


def test_run_cell_no_cache(capsys):
    code, out = run_cli(
        capsys, "run", "--app", "rubis", "--clients", "20",
        "--warmup", "5", "--duration", "15", "--no-cache",
    )
    assert code == 0
    assert "No cache" in out
    assert "mean response" in out


def test_run_cell_with_options(capsys):
    code, out = run_cli(
        capsys, "run", "--app", "rubis", "--clients", "20",
        "--warmup", "5", "--duration", "15",
        "--policy", "where-match", "--replacement", "lru",
        "--capacity", "50",
    )
    assert code == 0
    assert "AutoWebCache" in out


def test_run_weak_ttl(capsys):
    code, out = run_cli(
        capsys, "run", "--app", "rubis", "--clients", "10",
        "--warmup", "5", "--duration", "10", "--weak-ttl", "30",
    )
    assert code == 0
    assert "Weak TTL 30s" in out


def test_fig13_small(capsys):
    code, out = run_cli(
        capsys, "fig13", "--clients", "20", "--warmup", "5", "--duration", "15"
    )
    assert code == 0
    assert "RUBiS" in out and "hit rate" in out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_bad_policy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--policy", "psychic"])


@pytest.mark.parametrize("replacement", ["fifo", "lfu"])
def test_parser_rejects_dropped_replacement(replacement):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--replacement", replacement])


def test_obs_summary(capsys):
    code, out = run_cli(capsys, "obs", "--requests", "8")
    assert code == 0
    assert "Woven phase latency" in out
    assert "servlet" in out and "sql.query" in out
    assert "Invalidation protocol work" in out
    assert "pair_analyses" in out
    # Which write template dooms what, from the same one call.
    assert "Invalidation churn by template" in out
    assert "UPDATE items SET nb_of_bids = ?, max_bid = ? WHERE (id = ?)" in out


def test_obs_summary_cluster_reports_churn_from_the_aggregate(capsys):
    code, out = run_cli(capsys, "obs", "--requests", "8", "--nodes", "2")
    assert code == 0
    churn = out.split("Invalidation churn by template", 1)[1]
    assert "(no invalidations)" not in churn.split("\n\n", 1)[0]
    assert "INSERT INTO bids" in churn


def test_obs_metrics_view(capsys):
    code, out = run_cli(capsys, "obs", "--requests", "4", "--view", "metrics")
    assert code == 0
    assert "repro_phase_latency_seconds_bucket" in out
    assert 'le="+Inf"' in out


def test_obs_traces_view_cluster(capsys):
    code, out = run_cli(
        capsys, "obs", "--requests", "4", "--nodes", "3",
        "--view", "traces", "--traces", "20",
    )
    assert code == 0
    assert "servlet POST /rubis/store_bid" in out
    assert "bus.publish" in out
    assert out.count("bus.deliver") >= 3


def test_obs_rejects_bad_view(capsys):
    with pytest.raises(SystemExit):
        main(["obs", "--view", "bogus"])


def test_hitpath_small(capsys):
    code, out = run_cli(
        capsys, "hitpath", "--connections", "2", "--iterations", "10",
        "--pages", "2",
    )
    assert code == 0
    assert "speedup" in out
    assert "asyncio" in out and "threaded" in out


def test_list_mentions_hitpath(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "hitpath" in out
