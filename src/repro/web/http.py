"""HTTP request and response models.

A cached document is identified by its URI plus request parameters
(Section 3.1: "indexed by URI of the client requests including the
request arguments"), so :meth:`HttpRequest.cache_key` canonicalises
exactly that pair.  Cookies are modelled too because they are one of the
paper's transparency hazards (Section 4.3).
"""

from __future__ import annotations

import re
import urllib.parse
from dataclasses import dataclass, field


#: Reason phrases shared by the serving tiers (wsgi + asyncserver), so
#: a page served from a precomputed buffer is byte-identical to one
#: rendered fresh through the adapter.
STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


def status_line(code: int) -> str:
    """``"200 OK"``-style status line for a response code."""
    return f"{code} {STATUS_PHRASES.get(code, 'Unknown')}"


def parse_query_string(query: str) -> dict[str, str]:
    """Parse ``a=1&b=2`` into a dict (last occurrence wins)."""
    params: dict[str, str] = {}
    if not query:
        return params
    for pair in query.split("&"):
        if not pair:
            continue
        name, _, value = pair.partition("=")
        params[urllib.parse.unquote_plus(name)] = urllib.parse.unquote_plus(value)
    return params


#: Text ``quote_plus`` returns unchanged (urllib's always-safe set).
_needs_no_quoting = re.compile(r"[A-Za-z0-9_.~-]*").fullmatch


def _quote(value: object) -> str:
    """``quote_plus(str(value))``, skipping urllib's quote -> encode ->
    quote_from_bytes chain for the common all-safe name or value."""
    text = str(value)
    return text if _needs_no_quoting(text) else urllib.parse.quote_plus(text)


def encode_query_string(params: dict[str, str]) -> str:
    """Encode a dict into a canonical (sorted) query string."""
    return "&".join(
        f"{_quote(k)}={_quote(v)}" for k, v in sorted(params.items())
    )


@dataclass
class HttpRequest:
    """One client request."""

    method: str
    uri: str
    params: dict[str, str] = field(default_factory=dict)
    cookies: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    #: Attached by the container when sessions are enabled.
    session: object | None = None
    #: ``(uri, parameter items, key)`` of the last :meth:`cache_key`.
    _key_memo: tuple[str, tuple, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        if "?" in self.uri:
            path, _, query = self.uri.partition("?")
            self.uri = path
            merged = parse_query_string(query)
            merged.update(self.params)
            self.params = merged

    def get_parameter(self, name: str, default: str | None = None) -> str | None:
        """Servlet-API style parameter accessor."""
        return self.params.get(name, default)

    def get_int(self, name: str, default: int | None = None) -> int | None:
        value = self.params.get(name)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            return default

    def get_cookie(self, name: str, default: str | None = None) -> str | None:
        return self.cookies.get(name, default)

    def cache_key(self) -> str:
        """Canonical identity of this request: URI + sorted parameters.

        This is the index of the paper's first cache table (Figure 3):
        ``readHandlerName + readHandlerArgs``.

        A miss asks for the key several times (check, flight,
        collector, insert), so the sorted, quoted form is built once and
        reused while ``uri`` and the parameter items still equal the
        ones it was built from.  The comparison is what keeps a request
        whose ``uri`` or ``params`` were rebound or mutated from ever
        answering with its old key.
        """
        items = tuple(self.params.items())
        memo = self._key_memo
        if memo is not None and memo[0] == self.uri and memo[1] == items:
            return memo[2]
        query = encode_query_string(self.params)
        key = f"{self.uri}?{query}" if query else self.uri
        self._key_memo = (self.uri, items, key)
        return key

    def seed_cache_key(self, key: str) -> None:
        """Adopt ``key`` as :meth:`cache_key`'s answer for the current
        ``uri`` and parameters: a key the caller already derived from
        the same request target (the async server's head memo)."""
        self._key_memo = (self.uri, tuple(self.params.items()), key)


class HttpResponse:
    """One response under construction.

    Servlets write the page with :meth:`write`; the container (or the
    caching aspect, on a hit) reads the final document from
    :attr:`body`.
    """

    def __init__(self) -> None:
        self.status = 200
        self.headers: dict[str, str] = {"Content-Type": "text/html"}
        self.cookies: dict[str, str] = {}
        self._chunks: list[str] = []
        self.committed = False

    def write(self, text: str) -> None:
        """Append ``text`` to the response body."""
        self._chunks.append(text)

    def set_status(self, status: int) -> None:
        self.status = status

    def set_header(self, name: str, value: str) -> None:
        self.headers[name] = value

    def add_cookie(self, name: str, value: str) -> None:
        self.cookies[name] = value

    def send_error(self, status: int, message: str = "") -> None:
        self.status = status
        self._chunks = [f"<html><body><h1>{status}</h1><p>{message}</p></body></html>"]
        self.committed = True

    def mark(self) -> int:
        """Bookmark the current end of the body.

        The fragment-caching aspect brackets each fragment render with a
        mark so it can lift exactly the text the fragment produced (and
        nothing the enclosing page wrote before it).
        """
        return len(self._chunks)

    def body_since(self, mark: int) -> str:
        """The body text written after :meth:`mark` returned ``mark``."""
        return "".join(self._chunks[mark:])

    @property
    def body(self) -> str:
        return "".join(self._chunks)

    def replace_body(self, body: str) -> None:
        """Overwrite the body (used when serving a cached page)."""
        self._chunks = [body]

    def reset(self) -> None:
        self._chunks = []
        self.status = 200
        self.committed = False
