"""The online cost model behind adaptive admission.

One :class:`ClassProfile` per cache-key *class*.  A class aggregates
every key sharing a statistics bucket -- the page URI (query strings
stripped), a fragment's ``frag://name``, a method entry's
``method://qualname`` -- because admission is a per-*kind* decision:
individual keys come and go too fast to accumulate a signal, while the
class's hit probability, recomputation cost and invalidation churn are
stable workload properties.

Four signals, all exponentially weighted so the model tracks workload
shifts without unbounded history:

``hit_ewma``
    Probability that a lookup of this class hits (1.0 per hit, 0.0 per
    miss).  The benefit side of the ledger.
``recompute_ewma``
    Seconds to recompute an entry on the miss path, observed by the
    cache facade as insert time minus the flight/window open time --
    the same quantity the obs tier's histograms measure, available even
    without observability woven (:meth:`CostModel.sync_from_hub` folds
    the histograms in when it is).
``size_ewma``
    Entry body bytes: what a stored entry costs to keep.
``dooms`` / ``inserts``
    Invalidation churn: consistency dooms recorded against the class
    over insert attempts.  A class doomed about once per insert never
    lives long enough to repay its insert.

The score is ``hit_prob * recompute_cost - churn_weight *
dooms_per_insert * recompute_cost - byte_rent * size`` -- expected
seconds saved per future lookup, minus the expected seconds of
recomputation the class's churn forces, minus a configurable rent per
stored byte.  :meth:`CostModel.normalized_score` divides by the
recompute cost so policy thresholds are scale-free (a class is judged
by *what fraction* of its recomputation cost it repays, not by whether
its pages happen to be slow).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular-import hygiene: obs is optional at runtime
    from repro.obs.histogram import MetricsHub


def key_class(key: str) -> str:
    """The admission class of a cache key: its stats bucket.

    Strips the query/argument suffix, collapsing every parameterisation
    of one page / fragment / method onto one profile: ``/rubis/view_item
    ?item=3`` -> ``/rubis/view_item``, ``frag://x?a=1`` -> ``frag://x``,
    ``method://M.f?arg0=2`` -> ``method://M.f``.
    """
    head, _sep, _query = key.partition("?")
    return head


class ClassProfile:
    """Mutable per-class EWMA state (mutated under the model's lock)."""

    __slots__ = (
        "name",
        "lookups",
        "hit_ewma",
        "recompute_ewma",
        "recompute_samples",
        "size_ewma",
        "inserts",
        "dooms",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.lookups = 0
        self.hit_ewma = 0.0
        self.recompute_ewma = 0.0
        self.recompute_samples = 0
        self.size_ewma = 0.0
        self.inserts = 0
        self.dooms = 0

    @property
    def observations(self) -> int:
        """Sample count the cold-start rule gates on."""
        return self.lookups + self.inserts

    @property
    def dooms_per_insert(self) -> float:
        return self.dooms / self.inserts if self.inserts else 0.0

    def snapshot(self) -> dict:
        return {
            "class": self.name,
            "lookups": self.lookups,
            "hit_prob": self.hit_ewma,
            "recompute_seconds": self.recompute_ewma,
            "size_bytes": self.size_ewma,
            "inserts": self.inserts,
            "dooms": self.dooms,
            "dooms_per_insert": self.dooms_per_insert,
        }


class CostModel:
    """Thread-safe per-class cost/benefit accounting.

    A leaf structure in the lock order: it takes only its own lock and
    calls nothing under it, so the cache facade may feed it from under
    its own lock.  One model instance may be shared by
    every node cache of a cluster -- admission is cluster-wide policy,
    and the per-class signals are workload properties, not shard state.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        churn_weight: float = 1.0,
        byte_rent: float = 0.0,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        #: EWMA smoothing factor (weight of the newest sample).
        self.alpha = alpha
        #: Seconds of penalty per expected doom-forced recomputation.
        self.churn_weight = churn_weight
        #: Seconds of rent per stored body byte (0 disables the term;
        #: a bounded cache might charge ~recompute_cost/max_bytes).
        self.byte_rent = byte_rent
        self._lock = threading.Lock()
        self._profiles: dict[str, ClassProfile] = {}

    def _profile(self, cls: str) -> ClassProfile:
        profile = self._profiles.get(cls)
        if profile is None:
            profile = ClassProfile(cls)
            self._profiles[cls] = profile
        return profile

    def _blend(self, current: float, sample: float, first: bool) -> float:
        if first:
            return sample
        return current + self.alpha * (sample - current)

    # -- observation feeds (called by the cache facade) --------------------------------

    def observe_lookup(self, cls: str, hit: bool) -> None:
        with self._lock:
            profile = self._profile(cls)
            sample = 1.0 if hit else 0.0
            profile.hit_ewma = self._blend(
                profile.hit_ewma, sample, profile.lookups == 0
            )
            profile.lookups += 1

    def observe_recompute(self, cls: str, seconds: float) -> None:
        if seconds < 0.0:
            return  # a clock running backwards is not a signal
        with self._lock:
            profile = self._profile(cls)
            profile.recompute_ewma = self._blend(
                profile.recompute_ewma, seconds, profile.recompute_samples == 0
            )
            profile.recompute_samples += 1

    def observe_insert(self, cls: str, nbytes: int) -> None:
        """One insert *attempt* (stored or demoted to pass-through).

        Counting attempts keeps ``dooms_per_insert`` honest while a
        class is demoted: nothing is stored so nothing is doomed, and
        the churn estimate decays instead of freezing at its peak.
        """
        with self._lock:
            profile = self._profile(cls)
            profile.size_ewma = self._blend(
                profile.size_ewma, float(nbytes), profile.inserts == 0
            )
            profile.inserts += 1

    def observe_doom(self, cls: str, count: int = 1) -> None:
        with self._lock:
            self._profile(cls).dooms += count

    def sync_from_hub(self, hub: MetricsHub, phase: str = "servlet") -> int:
        """Fold the obs tier's latency histograms into the model.

        Each ``(phase, request_type)`` histogram mean becomes a
        recomputation-cost sample for the request type's class -- the
        miss path of a page *is* its servlet execution.  Returns the
        number of classes updated.  Optional: the facade's own
        flight-latency observations keep the model live when
        observability is not woven.
        """
        updated = 0
        for (hist_phase, request_type), histogram in hub.items():
            if hist_phase != phase or not histogram.count:
                continue
            self.observe_recompute(key_class(request_type), histogram.mean)
            updated += 1
        return updated

    # -- scoring -----------------------------------------------------------------------

    def observations(self, cls: str) -> int:
        with self._lock:
            profile = self._profiles.get(cls)
            return profile.observations if profile is not None else 0

    def score(self, cls: str) -> float:
        """Expected seconds saved per lookup, net of churn and rent."""
        with self._lock:
            profile = self._profiles.get(cls)
            if profile is None:
                return 0.0
            benefit = profile.hit_ewma * profile.recompute_ewma
            churn = (
                self.churn_weight
                * profile.dooms_per_insert
                * profile.recompute_ewma
            )
            rent = self.byte_rent * profile.size_ewma
            return benefit - churn - rent

    def normalized_score(self, cls: str) -> float:
        """Score as a fraction of the class's recomputation cost.

        ``+1`` is a perfect always-hit class, ``0`` break-even, ``-1`` a
        class whose every insert is doomed before a single hit.  A class
        with no recompute signal yet scores ``0`` (the cold-start rule
        admits it anyway).  Scale-free, so policy thresholds need no
        knowledge of absolute page latencies.
        """
        with self._lock:
            profile = self._profiles.get(cls)
            if profile is None or profile.recompute_ewma <= 0.0:
                return 0.0
        return self.score(cls) / profile.recompute_ewma

    def classes(self) -> list[str]:
        with self._lock:
            return sorted(self._profiles)

    def snapshot(self) -> dict[str, dict]:
        """Per-class profile snapshots plus the derived scores."""
        with self._lock:
            profiles = {
                cls: profile.snapshot()
                for cls, profile in self._profiles.items()
            }
        for cls, row in profiles.items():
            row["score"] = self.score(cls)
            row["normalized_score"] = self.normalized_score(cls)
        return profiles
