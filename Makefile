ENV := PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: test stress check bench bench-figures bench-e2e profile bench-cluster bench-invalidation bench-fragments bench-obs bench-hitpath differential results

# Tier-1: the full unit/integration/property suite (what CI gates on).
test:
	$(ENV) python -m pytest -x -q

# Threaded stress: every @pytest.mark.concurrency test plus the
# 16-thread RUBiS stress benchmarks (dogpile coalescing + mixed
# read/write consistency oracle, single-node and 4-node cluster), with
# every lock checking its rank at acquire (REPRO_LOCKWATCH=1, see
# src/repro/locks.py); the session fails on any out-of-order acquire.
# `timeout` is a hang backstop — pytest-timeout is not a dependency
# of this repo.
stress:
	$(ENV) REPRO_LOCKWATCH=1 timeout 600 python -m pytest -q -m concurrency \
		tests benchmarks/test_concurrency_stress.py \
		benchmarks/test_cluster_stress.py

# Whole-program consistency linter (repro.staticcheck): cacheability
# rules and pointcut coverage.  Exit 1 on any finding not justified in
# staticcheck-baseline.json; also runs its own tests.
check:
	$(ENV) python -m repro check --json-out benchmarks/results/staticcheck.json
	$(ENV) python -m pytest -q -m staticcheck

# Regenerate every paper figure + ablation (writes benchmarks/results/).
bench:
	$(ENV) python -m pytest benchmarks --benchmark-only -q

# The paper's figures (4, 13-20) and the four ablations, with their
# assertions, all against the PAPER profile that run_cell builds (see
# src/repro/harness/profiles.py).  ~85 s; in CI.
bench-figures:
	$(ENV) timeout 900 python -m pytest -q --benchmark-only \
		benchmarks/test_fig*.py benchmarks/test_ablation_*.py

# The repository benchmark (bench/README.md), smoke-sized: every
# workload over real sockets incl. the traced round, then the checks on
# the benchmark itself.  The traced round patches src/ attributes by
# name (bench/tracing.py), so this is what notices a rename.
bench-e2e:
	python bench/run.py --quick
	python -m pytest bench/test_bench.py -q

# Where the time goes, in-process: replays the wire bytes of a bench
# workload's warm-up + N closed-loop requests through the serving
# tier's protocol object (parse -> fast_check -> render -> serialize;
# no sockets) and prints wall time per request, the fast/slow split
# (fast hits through the server's head memo vs parsed probes), the
# SELECT share, the five most expensive SELECT templates (calls, us per
# call, rows examined / returned per call) and how often the pin-first
# plan rule fired, the miss tax (the slow requests replayed through an
# unwoven, cache-less twin in a child process: woven us / unwoven us),
# the top cProfile rows, the lock rounds per fast hit / slow GET / write
# (counted on the facade lock class's `__enter__`: every lock round is
# a `with`) and the head memo's size.  A candidate finder (the numbers ROADMAP
# items 1 and 4 rank layers by), not a gate: confirm with the traced
# round of bench/run.py.  `make profile N=500` is the CI smoke run.
WORKLOAD ?= rubis_browse_churn
N ?= 6000
SEED ?= 57
profile:
	python benchmarks/profile_requests.py --workload $(WORKLOAD) -n $(N) --seed $(SEED)

# Cluster tier: consistency + node-kill failover stress and the
# virtual-time 1/2/4/8-node curve (writes
# benchmarks/results/cluster_scaling_strong.txt).
bench-cluster:
	$(ENV) timeout 900 python -m pytest -q benchmarks/test_cluster_stress.py

# Indexed vs brute-force invalidation cost at 100/1k/10k registered
# templates (writes benchmarks/results/invalidation_scaling.txt).
bench-invalidation:
	$(ENV) timeout 600 python -m pytest -q benchmarks/test_invalidation_scaling.py

# Fragment ablation: whole-page vs fragment caching on TPC-W's
# hidden-state pages (writes benchmarks/results/fragment_ablation.txt).
bench-fragments:
	$(ENV) timeout 600 python -m pytest -q benchmarks/test_fragment_ablation.py

# Observability overhead: baseline vs woven-disabled vs woven-enabled
# on the hot cache-hit path (writes benchmarks/results/obs_overhead.txt).
# Scale with OBS_BENCH_REQUESTS / OBS_BENCH_TRIALS for CI smoke runs.
bench-obs:
	$(ENV) timeout 600 python -m pytest -q benchmarks/test_obs_overhead.py

# Serving-tier comparison: ThreadingMixIn wsgiref baseline vs the
# asyncio fast path over real sockets on warmed RUBiS item pages
# (writes benchmarks/results/hitpath_throughput.txt; asserts >= 5x).
# Scale with HITPATH_CONNECTIONS / HITPATH_ITERATIONS / HITPATH_PAGES /
# HITPATH_MIN_SPEEDUP for CI smoke runs.
bench-hitpath:
	$(ENV) timeout 600 python -m pytest -q benchmarks/test_hitpath_throughput.py

# Equivalence check: a ring's invalidation (indexes, verdicts, lineage,
# witnesses, probes, containment closure) must doom exactly what the
# brute-force invalidator plus a reference containment BFS dooms, over
# one seeded generator's rounds executed on a real database through the
# woven driver; one row per rung x ring size plus a catalog-free arm
# (exit 1 on a mismatch, a topology difference or an unmet guard).
differential:
	$(ENV) python -m repro differential

results:
	@cat benchmarks/results/*.txt
