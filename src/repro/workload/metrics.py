"""Response-time and hit-rate metrics collection."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RequestSample:
    """One measured request."""

    uri: str
    issued_at: float
    response_time: float
    cache_hit: bool
    is_write: bool
    semantic_hit: bool = False
    #: "cold"/"invalidation"/"capacity"/"expired"/"uncacheable"/None.
    miss_reason: str | None = None


@dataclass
class SeriesStats:
    """Aggregate over one request type (or everything)."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = 0.0
    hits: int = 0
    samples: list[float] = field(default_factory=list)

    def add(self, response_time: float, cache_hit: bool) -> None:
        self.count += 1
        self.total += response_time
        self.minimum = min(self.minimum, response_time)
        self.maximum = max(self.maximum, response_time)
        if cache_hit:
            self.hits += 1
        self.samples.append(response_time)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """p in [0, 100]; nearest-rank percentile."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]


class MetricsCollector:
    """Collects per-request samples during the measurement window."""

    def __init__(self) -> None:
        self.overall = SeriesStats()
        self.reads = SeriesStats()
        self.writes = SeriesStats()
        self.by_uri: dict[str, SeriesStats] = {}
        #: Hit/miss-separated series per URI (Figures 18/19 need the
        #: extra time a miss costs on top of the overall average).
        self.by_uri_hits: dict[str, SeriesStats] = {}
        self.by_uri_misses: dict[str, SeriesStats] = {}
        #: uri -> {"semantic": n, "cold": n, "invalidation": n, ...}.
        self.detail: dict[str, dict[str, int]] = {}
        self.dropped_warmup = 0

    def record(self, sample: RequestSample) -> None:
        self.overall.add(sample.response_time, sample.cache_hit)
        target = self.writes if sample.is_write else self.reads
        target.add(sample.response_time, sample.cache_hit)
        series = self.by_uri.get(sample.uri)
        if series is None:
            series = SeriesStats()
            self.by_uri[sample.uri] = series
        series.add(sample.response_time, sample.cache_hit)
        split = self.by_uri_hits if sample.cache_hit else self.by_uri_misses
        sub = split.get(sample.uri)
        if sub is None:
            sub = SeriesStats()
            split[sample.uri] = sub
        sub.add(sample.response_time, sample.cache_hit)
        detail = self.detail.setdefault(sample.uri, {})
        if sample.semantic_hit:
            detail["semantic"] = detail.get("semantic", 0) + 1
        elif sample.cache_hit:
            detail["hit"] = detail.get("hit", 0) + 1
        elif sample.miss_reason is not None:
            detail[sample.miss_reason] = detail.get(sample.miss_reason, 0) + 1
        elif sample.is_write:
            detail["write"] = detail.get("write", 0) + 1
        else:
            detail["executed"] = detail.get("executed", 0) + 1

    def record_warmup(self) -> None:
        self.dropped_warmup += 1

    @property
    def request_count(self) -> int:
        return self.overall.count
