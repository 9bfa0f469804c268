"""The two systems this repository measures, by name.

``PAPER`` is the system of the source paper's Sections 4-6: whole pages
only, one servlet execution per miss.  ``EXTENDED`` is what the
constructors build when given no switches -- every tier added since.
Each is a frozen mapping of :class:`~repro.cache.autowebcache.AutoWebCache`
keywords, passed as ``AutoWebCache(**PAPER, clock=...)``.  ``run_cell``
(every paper figure and ablation) builds ``PAPER``; the cluster cells
and the ``obs`` / ``hitpath`` commands say ``EXTENDED``.
Neither reads a constructor default, so a default flipped later cannot
move a figure.

Only the *tier switches* live here: the keywords that turn a mechanism
the paper does not have on or off.  Sizing and deployment inputs
(capacity, semantics, node count, ...) and the ``forced_miss``
experiment mode are passed beside the profile;
``tests/test_profiles.py`` classifies every constructor keyword as one
of the three, so a new keyword must be placed before it can land.

Both always invalidate through the dependency index: it dooms exactly
the pages the paper's pairwise protocol dooms (``make differential``),
so it is an implementation of Section 4, not a tier.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

PAPER: Mapping[str, object] = MappingProxyType(
    {"fragments": False, "coalesce": False}
)
EXTENDED: Mapping[str, object] = MappingProxyType(
    {"fragments": True, "coalesce": True}
)
