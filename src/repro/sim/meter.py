"""Work measurement around a single request execution."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.autowebcache import AutoWebCache
from repro.db.engine import Database
from repro.sim.costs import RequestWork
from repro.web.http import HttpResponse


@dataclass
class _Snapshot:
    queries: int
    updates: int
    rows: int
    hits: int
    semantic_hits: int
    misses_cold: int
    misses_invalidation: int
    misses_capacity: int
    misses_expired: int
    uncacheable: int
    tests: int


class WorkMeter:
    """Measures the work one dispatched request performed.

    Usage: ``before = meter.snapshot()``, dispatch the request, then
    ``meter.work_since(before, response, is_write)``.
    """

    def __init__(self, database: Database, awc: AutoWebCache | None = None) -> None:
        self._database = database
        self._awc = awc

    @property
    def cache_enabled(self) -> bool:
        return self._awc is not None

    def snapshot(self) -> _Snapshot:
        stats = self._database.stats
        if self._awc is not None:
            cache = self._awc.cache.stats
            # AC-extraQuery's extra query: the write's plan returns the
            # pre-image, so the database never sees a second statement,
            # but the paper's system issued one -- a SELECT with the
            # write's WHERE over the same table, examining the rows the
            # write examined.  Charged here as that query.
            return _Snapshot(
                queries=stats.queries + cache.extra_queries,
                updates=stats.updates,
                rows=stats.rows_examined + cache.extra_query_rows,
                hits=cache.hits,
                semantic_hits=cache.semantic_hits,
                misses_cold=cache.misses_cold,
                misses_invalidation=cache.misses_invalidation,
                misses_capacity=cache.misses_capacity,
                misses_expired=cache.misses_expired,
                uncacheable=cache.uncacheable,
                tests=cache.intersection_tests,
            )
        return _Snapshot(
            queries=stats.queries,
            updates=stats.updates,
            rows=stats.rows_examined,
            hits=0,
            semantic_hits=0,
            misses_cold=0,
            misses_invalidation=0,
            misses_capacity=0,
            misses_expired=0,
            uncacheable=0,
            tests=0,
        )

    def work_since(
        self, before: _Snapshot, response: HttpResponse, is_write: bool
    ) -> RequestWork:
        after = self.snapshot()
        hit = (after.hits + after.semantic_hits) > (
            before.hits + before.semantic_hits
        )
        miss_reason = None
        if not hit:
            if after.misses_invalidation > before.misses_invalidation:
                miss_reason = "invalidation"
            elif after.misses_capacity > before.misses_capacity:
                miss_reason = "capacity"
            elif after.misses_expired > before.misses_expired:
                miss_reason = "expired"
            elif after.misses_cold > before.misses_cold:
                miss_reason = "cold"
            elif after.uncacheable > before.uncacheable:
                miss_reason = "uncacheable"
        return RequestWork(
            queries=after.queries - before.queries,
            updates=after.updates - before.updates,
            rows_examined=after.rows - before.rows,
            bytes_out=len(response.body),
            intersection_tests=after.tests - before.tests,
            cache_hit=hit,
            semantic_hit=after.semantic_hits > before.semantic_hits,
            miss_reason=miss_reason,
            cache_enabled=self.cache_enabled,
            is_write=is_write,
        )
