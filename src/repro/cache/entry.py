"""Cache entries and query instances."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.sql.template import QueryTemplate


class QueryInstance(NamedTuple):
    """One executed query: its template plus the concrete value vector.

    For a read request these are the *dependency information*; for a
    write request the *invalidation information* (Section 3.1).
    ``pre_image`` is populated for UPDATE/DELETE instances under the
    AC-extraQuery policy: the affected rows' column values before the
    write (what the paper's extra query fetched; here the write's own
    before-image), used by the run-time intersection test.  For an
    INSERT it holds the row as stored (its after-image: generated key,
    coerced values, NULLs), captured under every policy.

    ``witness`` is a read's row witness: ``(output position, keys)``
    for each table whose primary key the read projects and which had
    been written when the read ran -- the keys of the rows its result
    showed (:func:`~repro.cache.analysis.witness_excuses`).  None when
    nothing was captured.

    :attr:`partners` are an INSERT's partner probes under
    ``ROW_WITNESS``: ``(partner table, partner column, value, rows)``
    for each probe the JDBC aspect ran after the write, ``rows`` being
    the partner rows with that column equal to the value, as ``(column,
    value)`` pairs (:func:`~repro.cache.analysis.partners_excuse`).
    None when nothing was probed.  A read has no probes and a write no
    witness, so the two share the fourth slot: a fifth would cost each
    of the many read instances a cache holds 16 bytes.

    Immutable, compared and hashed by value; a named tuple because one
    is built per intercepted statement.
    """

    template: QueryTemplate
    values: tuple[object, ...]
    pre_image: tuple[dict[str, object], ...] | None = None
    witness: tuple[tuple[int, tuple[object, ...]], ...] | None = None

    @property
    def partners(self) -> tuple[tuple[str, str, object, tuple], ...] | None:
        """A write's partner probes (the fourth slot; see above)."""
        return self.witness if self.template.is_write else None

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.template.text} {self.values!r}"


@dataclass(init=False)
class PageEntry:
    """One cached web page (row of Figure 3's first table).

    Equality and repr are the dataclass's; ``__init__`` is written out
    because one entry is built per insert: it stores what an insert
    passes and leaves the bookkeeping fields at their class defaults.
    """

    key: str
    body: str
    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    #: Read instances the page was generated from (dependency info).
    dependencies: tuple[QueryInstance, ...] = ()
    created_at: float = 0.0
    #: Absolute expiry time for TTL-window pages; None = no expiry.
    expires_at: float | None = None
    #: True when cached under an application-semantics TTL window.
    semantic: bool = False
    #: Cache keys of the fragments whose cached text this body embeds
    #: (containment edges: dooming any of them dooms this entry too).
    fragments: tuple[str, ...] = ()
    hit_count: int = 0
    #: Set by :meth:`doom` when the page store removes this entry for a
    #: consistency reason (invalidation, expiry, eviction).  Serving
    #: tiers that pinned the wire buffer check it to fall back to a
    #: fresh render instead of replaying a dead entry.
    doomed: bool = False
    #: Precomputed header+body byte buffer for the event-loop hit path,
    #: pinned by :meth:`wire` and dropped by :meth:`doom`.
    _wire: bytes | None = field(default=None, repr=False, compare=False)

    def __init__(
        self,
        key: str,
        body: str,
        status: int = 200,
        headers: dict[str, str] | None = None,
        dependencies: tuple[QueryInstance, ...] = (),
        created_at: float = 0.0,
        expires_at: float | None = None,
        semantic: bool = False,
        fragments: tuple[str, ...] = (),
        hit_count: int = 0,
        doomed: bool = False,
    ) -> None:
        self.key = key
        self.body = body
        self.status = status
        self.headers = {} if headers is None else headers
        self.dependencies = dependencies
        self.created_at = created_at
        self.expires_at = expires_at
        self.semantic = semantic
        self.fragments = fragments
        if hit_count:
            self.hit_count = hit_count
        if doomed:
            self.doomed = doomed

    @property
    def size(self) -> int:
        return len(self.body)

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at

    def wire(self, build: Callable[["PageEntry"], bytes]) -> bytes | None:
        """The pinned wire-format buffer for this entry, or ``None``.

        The first call renders the buffer with ``build`` (the serving
        tier owns the wire format; the cache only pins the bytes) and
        every later call returns the same object, so a hot hit costs a
        dict lookup and one attribute read -- no re-render, no string
        encode.  Once the entry is :meth:`doom`-ed the method returns
        ``None`` and the caller must re-enter the renderer.

        Unsynchronized by design: concurrent first calls build identical
        buffers (``build`` must be pure in the entry), and a doom racing
        a ``wire`` can at worst hand out a buffer equivalent to a
        request that finished just before the invalidation -- the same
        tolerance the insert-time staleness window already grants.
        """
        if self.doomed:
            return None
        buffer = self._wire
        if buffer is None:
            buffer = build(self)
            self._wire = buffer
        return buffer

    def doom(self) -> None:
        """Kill the pinned buffer along with the entry.

        Called by the page store when the entry is removed for a
        consistency reason; the flag stops the fast path even for
        threads that grabbed the entry reference before removal.
        """
        self.doomed = True
        self._wire = None
