"""The servlet API: ``HttpServlet`` with ``do_get`` / ``do_post``.

These two method names are the well-known entry/exit points the paper's
weaving rules rely on (Figure 9).  Application servlets subclass
:class:`HttpServlet` and override one or both; ``service`` dispatches by
HTTP method.
"""

from __future__ import annotations

from repro.errors import ServletError
from repro.web.http import HttpRequest, HttpResponse


class HttpServlet:
    """Base class for all servlets.

    Subclasses override :meth:`do_get` for read-only interactions and
    :meth:`do_post` for updates, mirroring the HTTP GET/POST split the
    benchmark applications use.  The caching aspects attach to these
    method executions on subclasses via
    ``execution(HttpServlet+.do_get(..))`` pointcuts -- the servlet code
    itself contains no caching logic.
    """

    def init(self) -> None:
        """Lifecycle hook called once when the container registers the
        servlet.  Default: no-op."""

    def destroy(self) -> None:
        """Lifecycle hook called when the container shuts down."""

    def service(self, request: HttpRequest, response: HttpResponse) -> None:
        """Dispatch ``request`` to ``do_get``/``do_post`` by HTTP method."""
        if request.method == "GET":
            self.do_get(request, response)
        elif request.method == "POST":
            self.do_post(request, response)
        else:
            response.send_error(405, f"method {request.method} not allowed")

    def do_get(self, request: HttpRequest, response: HttpResponse) -> None:
        """Handle HTTP GET; default mirrors the Servlet API's 405."""
        response.send_error(405, "GET not supported")

    def do_post(self, request: HttpRequest, response: HttpResponse) -> None:
        """Handle HTTP POST; default mirrors the Servlet API's 405."""
        response.send_error(405, "POST not supported")


def require_parameter(request: HttpRequest, name: str) -> str:
    """Fetch a mandatory parameter or raise :class:`ServletError`."""
    value = request.get_parameter(name)
    if value is None:
        raise ServletError(f"missing required parameter {name!r}")
    return value
