"""Workload definitions and the deterministic request generator.

``--seed`` -> request lists.  The lists are built offline from the
repository's own ``InteractionMix`` / ``ClientSession`` generators, so
the program under test receives nothing but HTTP bytes.

One thing cannot be decided offline: TPC-W cart ids are allocated by the
server.  Requests that need one carry the :data:`CART` placeholder and
the client substitutes the id it read from that session's last
``shopping_cart`` page, the way the TPC-W emulated browser does.  All
requests of one session go down one connection, in order, so the
substitution is race-free with any number of connections.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field

from repro.web.http import encode_query_string
from repro.workload.mix import InteractionMix
from repro.workload.session import ClientSession

#: Load-generating connections (= client threads).  The issue fixes it
#: at the sandbox's nproc; session slots map onto connections modulo
#: this, so changing it changes every request list's interleaving.
CONNECTIONS = 2

#: Placeholder for a server-allocated TPC-W cart id.
CART = "@cart"
CART_RE = re.compile(rb"cart (\d+)")

#: Concurrent emulated sessions and requests per session.  Slots are
#: filled round-robin, so request i belongs to slot i % SESSION_SLOTS
#: and (SESSION_SLOTS being a multiple of CONNECTIONS) to connection
#: i % CONNECTIONS.
SESSION_SLOTS = 32
SESSION_LENGTH = 50

#: Disjoint ``ClientSession.session_id`` ranges per phase: RUBiS
#: ``register_user`` derives the nickname from the session id, and a
#: reused id answers 500 "nickname taken".
PHASE_BASE = {"warmup": 0, "closed": 1_000_000, "paced": 2_000_000, "verify": 3_000_000}

VERIFY_REQUESTS = 1500


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    app: str  # "rubis" | "tpcw"
    mix: str  # factory name in repro.apps.<app>.workload
    cache: dict = field(default_factory=dict)  # facade kwargs
    nodes: int = 0  # 0 = AutoWebCache, n = ClusterAutoWebCache(n_nodes=n)
    warmup: int = 0  # untimed requests before the closed-loop phase
    closed: int = 0  # closed-loop request list length (an upper bound)
    paced_rps: int = 0  # open-loop rate, ~20-25 % of measured capacity
    writes: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rubis_browse_hot",
            why=(
                "Working set fits the cache: ~88 % of requests are answered on"
                " the loop thread from wire buffers; a miss- or write-path"
                " change must not move it."
            ),
            app="rubis",
            mix="browsing_mix",
            warmup=6000,
            closed=40000,
            paced_rps=1500,
        ),
        Workload(
            name="rubis_browse_churn",
            why=(
                "LRU cache of 64 pages, far below the working set: over half"
                " the requests take the full woven miss path with eviction;"
                " no writes, so invalidation is idle."
            ),
            app="rubis",
            mix="browsing_mix",
            cache={"replacement": "lru", "capacity": 64},
            warmup=3000,
            closed=12000,
            paced_rps=500,
        ),
        Workload(
            name="rubis_bidding",
            why=(
                "The paper's primary mix (15 % writes): write analysis, dooms"
                " and invalidation re-misses beside reads; a read-path gain"
                " that costs writers shows here."
            ),
            app="rubis",
            mix="bidding_mix",
            warmup=3000,
            closed=12000,
            paced_rps=400,
            writes=True,
        ),
        Workload(
            name="tpcw_shopping_ring4",
            why=(
                "TPC-W shopping mix (20 % writes) through a 4-node ring:"
                " fragment-assembled hidden-state pages, cross-shard"
                " containment dooming, synchronous bus fan-out per write."
            ),
            app="tpcw",
            mix="shopping_mix",
            nodes=4,
            warmup=2000,
            closed=16000,
            paced_rps=350,
            writes=True,
        ),
    )
}


def build_app(workload: Workload):
    """The workload's application over its default dataset."""
    if workload.app == "rubis":
        from repro.apps.rubis.app import build_rubis

        return build_rubis()
    from repro.apps.tpcw.app import build_tpcw

    return build_tpcw()


def build_facade(workload: Workload):
    """``AutoWebCache`` / ``ClusterAutoWebCache`` with default flags."""
    kwargs = dict(workload.cache)
    if workload.app == "tpcw":
        from repro.apps.tpcw.app import standard_semantics

        kwargs["semantics"] = standard_semantics()
    if workload.nodes:
        from repro.cluster import ClusterAutoWebCache

        return ClusterAutoWebCache(n_nodes=workload.nodes, **kwargs)
    from repro.cache.autowebcache import AutoWebCache

    return AutoWebCache(**kwargs)


class Request:
    """One generated request; ``wire`` is None while it needs a cart id."""

    __slots__ = ("method", "uri", "params", "session", "is_write", "wire")

    def __init__(self, method, uri, params, session, is_write):
        self.method = method
        self.uri = uri
        self.params = params
        self.session = session
        self.is_write = is_write
        self.wire = None if CART in params.values() else encode(method, uri, params)

    def resolved_params(self, carts: dict[int, str]) -> dict[str, str]:
        """Parameters with the cart placeholder filled from ``carts``."""
        if self.wire is not None:
            return self.params
        return {
            k: carts.get(self.session, "0") if v == CART else v
            for k, v in self.params.items()
        }

    def wire_for(self, carts: dict[int, str]) -> bytes:
        """The bytes to send, given the cart ids learnt so far."""
        return self.wire or encode(
            self.method, self.uri, self.resolved_params(carts)
        )

    def observe(self, body: bytes, carts: dict[int, str]) -> None:
        """Learn the session's cart id from a ``shopping_cart`` page."""
        if self.uri.endswith("shopping_cart"):
            match = CART_RE.search(body)
            if match is not None:
                carts[self.session] = match.group(1).decode()


def encode(method: str, uri: str, params: dict[str, str]) -> bytes:
    """HTTP/1.1 keep-alive request bytes."""
    query = encode_query_string(params)
    if method == "GET":
        target = f"{uri}?{query}" if query else uri
        return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
    return (
        f"{method} {uri} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/x-www-form-urlencoded\r\n"
        f"Content-Length: {len(query)}\r\n\r\n{query}"
    ).encode("latin-1")


def build_mix(workload: Workload) -> InteractionMix:
    """The workload's mix over the application's default dataset."""
    if workload.app == "rubis":
        from repro.apps.rubis import workload as module
        from repro.apps.rubis.data import RubisDataset as Dataset
    else:
        from repro.apps.tpcw import workload as module
        from repro.apps.tpcw.data import TpcwDataset as Dataset
    return getattr(module, workload.mix)(Dataset())


def generate(
    workload: Workload, seed: int, phase: str, count: int
) -> list[Request]:
    """``count`` requests of ``phase``, a pure function of the arguments."""
    mix = build_mix(workload)
    next_id = PHASE_BASE[phase]

    def new_session() -> ClientSession:
        nonlocal next_id
        session = ClientSession(
            session_id=next_id,
            mix=mix,
            rng=random.Random(f"{seed}:{workload.name}:{next_id}"),
        )
        next_id += 1
        return session

    slots = [new_session() for _ in range(SESSION_SLOTS)]
    # Stagger the first generation so sessions do not all expire at once.
    budgets = [
        1 + SESSION_LENGTH * (k + 1) // SESSION_SLOTS for k in range(SESSION_SLOTS)
    ]
    requests = []
    for i in range(count):
        slot = i % SESSION_SLOTS
        if budgets[slot] == 0:
            slots[slot] = new_session()
            budgets[slot] = SESSION_LENGTH
        budgets[slot] -= 1
        session = slots[slot]
        planned = session.next_request()
        request = Request(
            planned.method,
            planned.uri,
            planned.params,
            session.session_id,
            planned.is_write,
        )
        if request.uri.endswith("shopping_cart"):
            # The page that answers this request names the cart.
            session.state["cart"] = CART
            session.state.setdefault("cart_items", 0)
        requests.append(request)
    return requests


def fingerprint(requests: list[Request]) -> str:
    """SHA-256 over the canonical form of a request list."""
    digest = hashlib.sha256()
    for r in requests:
        digest.update(
            json.dumps(
                [r.method, r.uri, sorted(r.params.items()), r.session]
            ).encode()
        )
    return digest.hexdigest()


def golden_fingerprint(workload: Workload, seed: int = 1) -> str:
    """Fingerprint of the nominal warm-up + closed + 4 s paced lists."""
    requests = []
    for phase, count in (
        ("warmup", workload.warmup),
        ("closed", workload.closed),
        ("paced", workload.paced_rps * 4),
    ):
        requests += generate(workload, seed, phase, count)
    return fingerprint(requests)


#: ``golden_fingerprint(w, seed=1)``: the generator (and the mixes and
#: samplers under it) must not drift silently between commits.
GOLDEN_SEED1: dict[str, str] = {
    "rubis_browse_hot": (
        "83029c93eee72f35684121af89f68a3b53239e32a4c0db05cb30eeeb36b3e0ac"
    ),
    "rubis_browse_churn": (
        "50f3c0333fd1c86538d339c4df658594943f3d2db89b25ef8e7a573e9bcaf5a3"
    ),
    "rubis_bidding": (
        "83e0350e4407535b1c75fe228809dab58dee331a1641081a6fd6f8dfffc29080"
    ),
    "tpcw_shopping_ring4": (
        "4b21495b15013a7292f726dc9d44322df0be8f5b000cf1c872d6524521cb8bcc"
    ),
}
