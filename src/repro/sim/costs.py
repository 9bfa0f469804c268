"""Service-demand model: converting measured work into virtual seconds.

Each request's *work* is measured exactly (queries, rows examined, bytes
generated, invalidation tests); the cost model converts it into app-tier
and database-tier service demands.  Constants are calibrated so that
the simulated testbed saturates in the same client-count region the
paper's hardware did (RUBiS towards 1000 clients, TPC-W towards 300-400
clients).  The TPC-W model charges more per examined row than the RUBiS
model because the synthetic TPC-W population is scaled down ~100x from
the spec's (each synthetic row stands for many real ones); see
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RequestWork:
    """Measured work for one request (deltas across its execution)."""

    queries: int = 0
    updates: int = 0
    rows_examined: int = 0
    bytes_out: int = 0
    intersection_tests: int = 0
    cache_hit: bool = False
    #: Hit served under an application-semantics TTL window.
    semantic_hit: bool = False
    #: For misses: "cold" / "invalidation" / "capacity" / "expired" /
    #: "uncacheable"; None for hits and writes.
    miss_reason: str | None = None
    cache_enabled: bool = False
    is_write: bool = False


@dataclass(frozen=True)
class CostModel:
    """Per-unit service costs, in (virtual) seconds."""

    app_base: float = 0.003  # request parsing, dispatch, servlet overhead
    app_per_query: float = 0.0005  # driver call overhead per SQL statement
    app_per_kb: float = 0.001  # page generation per KB of output
    app_cache_lookup: float = 0.0002  # hash lookup + key canonicalisation
    app_hit_serve: float = 0.0004  # copying a cached page into the response
    app_per_intersection: float = 0.00002  # one invalidation test
    db_per_query: float = 0.0004  # per-statement fixed cost
    db_per_row: float = 0.00004  # per row examined

    def demands(self, work: RequestWork) -> tuple[float, float]:
        """Return (app_demand, db_demand) in seconds."""
        statements = work.queries + work.updates
        if work.cache_enabled and work.cache_hit:
            # Hit path: lookup plus serving the stored page; the servlet
            # and database were bypassed entirely.
            app = self.app_cache_lookup + self.app_hit_serve
            return app, 0.0
        app = (
            self.app_base
            + self.app_per_query * statements
            + self.app_per_kb * (work.bytes_out / 1024.0)
        )
        if work.cache_enabled:
            app += self.app_cache_lookup
            app += self.app_per_intersection * work.intersection_tests
        db = self.db_per_query * statements + self.db_per_row * work.rows_examined
        return app, db


#: RUBiS calibration: saturation approaching ~1000 clients (Figure 13).
RUBIS_COST_MODEL = CostModel(
    app_base=0.0042,
    app_per_kb=0.0013,
    app_per_intersection=0.000005,
)

#: TPC-W calibration: the scaled-down population makes row counts ~100x
#: smaller than the spec's, so the per-row cost is inflated to keep the
#: BestSellers aggregation as dominant as it was on the paper's testbed
#: (saturation in the 300-400 client region, Figure 14).  Fitted while
#: BestSellers scanned every order line; it still saturates there now
#: that the executor's pin-first rule drives it from the subject index
#: (~56 rows examined per call instead of ~1 630; EXPERIMENTS.md).
TPCW_COST_MODEL = CostModel(
    app_base=0.004,
    app_per_kb=0.0015,
    app_per_intersection=0.000005,
    db_per_row=0.0002,
    db_per_query=0.0005,
)
