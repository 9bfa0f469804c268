"""Cache entries and query instances."""

from __future__ import annotations

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


class PageEntry:
    """One cached web page (row of Figure 3's first table).

    A slotted record: one is built per insert and thousands stay
    resident, so it carries no per-instance ``__dict__`` and no field
    that nothing reads.  A cached page serves the response defaults
    (``_HIT_HEADERS`` on the fast path, the response's own on a woven
    hit), so it stores no headers.  Compared by identity.

    **The body is stored once.**  Until the serving tier pins a wire
    buffer (:meth:`wire`) the entry holds the body ``str``; pinning
    keeps the buffer -- head plus the UTF-8 body -- and drops the
    ``str``, and :attr:`body` decodes the buffer's tail on the rare
    slow-path hit of such a page.  Fragment entries are never pinned and
    keep their ``str``.
    """

    __slots__ = (
        "key",
        "size",
        "status",
        "dependencies",
        "expires_at",
        "semantic",
        "doomed",
        "_text",
        "_wire",
        "_offset",
    )

    def __init__(
        self,
        key: str,
        body: str,
        status: int = 200,
        dependencies: tuple[QueryInstance, ...] = (),
        expires_at: float | None = None,
        semantic: bool = False,
    ) -> None:
        self.key = key
        #: Body length in characters (what byte-bounded capacity
        #: counts), fixed for the entry's life: pinning a wire buffer
        #: changes how the body is held, not what it is.
        self.size = len(body)
        self.status = status
        #: Read instances the page was generated from (dependency info).
        self.dependencies = dependencies
        #: Absolute expiry time for TTL-window pages; None = no expiry.
        self.expires_at = expires_at
        #: True when cached under an application-semantics TTL window.
        self.semantic = semantic
        #: Set by :meth:`doom` when the page store removes this entry for
        #: a consistency reason (invalidation, expiry, eviction).  Serving
        #: tiers that pinned the wire buffer check it to fall back to a
        #: fresh render instead of replaying a dead entry.
        self.doomed = False
        #: The body until a wire buffer is pinned, then None.
        self._text: str | None = body
        #: The pinned header+body buffer (:meth:`wire`), and the byte
        #: offset in it where the body starts.
        self._wire: bytes | None = None
        self._offset = 0

    @property
    def body(self) -> str:
        """The page text: the stored ``str``, or the pinned buffer's tail
        decoded (the text is dropped only after buffer and offset are
        in place, so a reader that finds no text finds both)."""
        text = self._text
        if text is None:
            return str(memoryview(self._wire)[self._offset :], "utf-8")
        return text

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at

    def wire(self, build: Callable[["PageEntry"], bytes]) -> bytes | None:
        """The pinned wire-format buffer for this entry, or ``None``.

        The first call renders the buffer with ``build`` (the serving
        tier owns the wire format; the cache only pins the bytes) and
        every later call returns the same object, so a hot hit costs a
        dict lookup and one attribute read -- no re-render, no string
        encode.  The buffer is an HTTP response: the body starts after
        the blank line that ends its head, and that offset is recorded
        from the head, never from the text's length (a non-ASCII body
        encodes to more bytes than it has characters).  Once the entry
        is :meth:`doom`-ed the method returns ``None`` and the caller
        must re-enter the renderer.

        Unsynchronized by design: concurrent first calls build identical
        buffers (``build`` must be pure in the entry; a call that finds
        the text already dropped builds from the other call's buffer),
        and a doom racing a ``wire`` can at worst hand out a buffer
        equivalent to a request that finished just before the
        invalidation -- the same tolerance the insert-time staleness
        window already grants.  Buffer and offset are assigned *before*
        the text is dropped, so :attr:`body` on another thread (the
        threaded WSGI tier's woven hit) always finds one or the other.
        """
        if self.doomed:
            return None
        buffer = self._wire
        if buffer is None:
            buffer = build(self)
            self._offset = buffer.index(b"\r\n\r\n") + 4
            self._wire = buffer
            self._text = None
        return buffer

    def doom(self) -> None:
        """Mark the entry dead.

        Called by the page store when the entry is removed for a
        consistency reason; the flag stops the fast path even for
        threads that grabbed the entry reference before removal.  The
        pinned buffer is kept: it may be the only copy of the body,
        which a woven hit holding this reference may still read.
        """
        self.doomed = True
