"""AutoWebCache: transparent, consistent caching of dynamic web pages.

This package is the paper's primary contribution.  The moving parts map
to the paper's sections as follows:

- :mod:`repro.cache.page_cache` -- the two-table cache structure of
  Figure 3 (pages indexed by URI+args; read-query templates with value
  vectors and the pages depending on them);
- :mod:`repro.cache.analysis` -- the query analysis engine of Section
  3.2 with its three invalidation policies (column-only, WHERE-match,
  and the AC-extraQuery strategy);
- :mod:`repro.cache.analysis_cache` -- the cached template-pair analysis
  results whose statistics appear in Figure 4;
- :mod:`repro.cache.consistency` -- per-request collection of dependency
  (read) and invalidation (write) information (Figures 5 and 6);
- :mod:`repro.cache.semantics` -- application-semantics hooks: marking
  requests uncacheable (hidden state) and TTL windows such as TPC-W's
  BestSeller 30-second dirty-read allowance (Section 4.3);
- :mod:`repro.cache.aspects` -- the weaving rules of Figures 10-12;
- :mod:`repro.cache.computation` -- the miss protocol (lookup, coalesce,
  compute, insert) every caching aspect shares, written once;
- :mod:`repro.cache.autowebcache` -- the installer that weaves the whole
  system onto an application with one call; the aspects it binds talk
  to the :class:`~repro.cluster.router.ClusterRouter` facade, over one
  :class:`~repro.cache.api.Cache` store per node.
"""

from repro.cache.analysis import InvalidationPolicy, QueryAnalysisEngine
from repro.cache.api import Cache
from repro.cache.autowebcache import AutoWebCache
from repro.cache.external import TriggerInvalidationBridge
from repro.cache.replacement import LruPolicy, UnboundedPolicy
from repro.cache.semantics import SemanticsRegistry
from repro.cache.stats import CacheStats

__all__ = [
    "AutoWebCache",
    "Cache",
    "CacheStats",
    "InvalidationPolicy",
    "QueryAnalysisEngine",
    "SemanticsRegistry",
    "TriggerInvalidationBridge",
    "LruPolicy",
    "UnboundedPolicy",
]
