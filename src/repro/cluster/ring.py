"""Consistent-hash ring: deterministic key -> node placement.

The front-end router shards the page-cache key space over N nodes.  A
plain ``hash(key) % N`` placement remaps nearly every key whenever N
changes; the classic consistent-hashing construction (Karger et al.)
instead places each node at many pseudo-random points ("virtual nodes")
on a 2^32 ring and assigns a key to the first node point clockwise from
the key's own hash.  Adding or removing one node then remaps only the
arcs adjacent to that node's points -- roughly ``1/N`` of the keys --
which is what makes online join/leave (``repro.cluster.node``) cheap.

Hashing uses MD5 (of all things) purely as a cheap, *stable* mixer:
Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), and a
cluster whose placement changes across restarts would invalidate every
key on every deploy.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from typing import Callable, Iterable

from repro.errors import ClusterError

#: Points per node on the ring.  More points -> smoother balance at
#: slightly higher add/remove cost; 64 keeps the max/mean key-share
#: skew under ~30% for small clusters, plenty for this tier.
DEFAULT_VNODES = 64


def stable_hash(text: str) -> int:
    """A process-independent 32-bit hash of ``text``."""
    digest = hashlib.md5(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class HashRing:
    """The ring: node names at ``vnodes`` points each.

    Not thread-safe by itself; the router serialises membership changes
    and lookups racing them behind its own lock.
    """

    def __init__(
        self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes <= 0:
            raise ClusterError("a ring needs at least one virtual node per node")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        #: Sorted ring positions and the node owning each.
        self._points: list[int] = []
        self._owners: list[str] = []
        #: Bumped by every membership change.
        self.version = 0
        #: Called after every membership change: the router replaces
        #: its placement snapshot, whose answers just went out of date.
        self.on_change: Callable[[], object] | None = None
        for node in nodes:
            self.add_node(node)

    # -- membership --------------------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ClusterError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for point in self._points_for(node):
            index = bisect.bisect(self._points, point)
            # Ties between distinct nodes' points are broken by insert
            # order; MD5 collisions on 32 bits are possible but harmless
            # (both orders are valid placements).
            self._points.insert(index, point)
            self._owners.insert(index, node)
        self._changed()

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise ClusterError(f"node {node!r} is not on the ring")
        self._nodes.discard(node)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _owner in keep]
        self._owners = [owner for _point, owner in keep]
        self._changed()

    def _changed(self) -> None:
        self.version += 1
        if self.on_change is not None:
            self.on_change()

    def _points_for(self, node: str) -> list[int]:
        return [stable_hash(f"{node}#{i}") for i in range(self.vnodes)]

    # -- placement ---------------------------------------------------------------------

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (first point clockwise of its hash)."""
        return self.nodes_for(key, 1)[0]

    def nodes_for(self, key: str, n: int) -> list[str]:
        """The first ``n`` *distinct* nodes clockwise from ``key``'s
        hash (the successor walk a failed-over key follows).

        Element 0 is the owner (identical to :meth:`node_for`); the
        rest are its successors in ring order.  With fewer than ``n``
        nodes on the ring every node is returned.  The walk keeps the
        classic minimal-remapping property per *member*: a join or
        leave only touches walks that cross the changed node's points.
        """
        if not self._points:
            raise ClusterError(
                "the ring is empty: no cache node is available for "
                f"key {key!r}"
            )
        if n <= 0:
            raise ClusterError("a successor walk needs at least one node")
        if len(self._nodes) == 1:
            return list(self._nodes)  # the one member owns every key
        start = bisect.bisect(self._points, stable_hash(key))
        total = len(self._points)
        want = min(n, len(self._nodes))
        walk: list[str] = []
        for offset in range(total):
            owner = self._owners[(start + offset) % total]
            if owner not in walk:
                walk.append(owner)
                if len(walk) == want:
                    break
        return walk

    def spread(self, keys: Iterable[str]) -> Counter:
        """How many of ``keys`` each node owns (balance diagnostics)."""
        counts: Counter = Counter({node: 0 for node in self._nodes})
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts
