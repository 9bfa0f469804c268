#!/usr/bin/env python3
"""Operational integration: the Section 8 extensions in action.

Shows the features a production deployment of AutoWebCache needs beyond
the core paper experiments:

1. **External updates through database triggers** — a maintenance
   script updates the database directly (bypassing the servlets); the
   trigger bridge keeps the page cache consistent anyway.
2. **Transactions** — a rolled-back direct update invalidates nothing,
   because its trigger events are discarded with it.
3. **WSGI** — the same cached container mounted as a standard WSGI app.

Run:  python examples/operations_integration.py
"""

import io

from repro.apps.rubis import RubisDataset, build_rubis
from repro.cache import AutoWebCache, TriggerInvalidationBridge
from repro.web.wsgi import WsgiAdapter


def main():
    app = build_rubis(RubisDataset(n_users=50, n_items=100, seed=3))

    awc = AutoWebCache()
    bridge = TriggerInvalidationBridge(awc.cache, awc.collector).attach(
        app.database
    )
    awc.install(app.servlet_classes)
    try:
        c = app.container

        print("== 1. external updates through triggers ==")
        page = c.get("/rubis/view_item", {"item": "5"})
        assert "item-5" in page.body
        # Ops team renames the item directly in the database.
        app.database.update(
            "UPDATE items SET name = ? WHERE id = ?", ("item-5-renamed", 5)
        )
        page = c.get("/rubis/view_item", {"item": "5"})
        print(f"   renamed item visible: {'item-5-renamed' in page.body} "
              f"(external writes bridged: {bridge.external_writes})")

        print("== 2. a rolled-back script changes nothing ==")
        c.get("/rubis/view_item", {"item": "6"})
        app.database.begin()
        app.database.update(
            "UPDATE items SET name = ? WHERE id = ?", ("junk", 6)
        )
        app.database.rollback()
        hits_before = awc.stats.hits
        page = c.get("/rubis/view_item", {"item": "6"})
        print(f"   page still cached after rollback: "
              f"{awc.stats.hits == hits_before + 1}")

        print("== 3. the same cached app served over WSGI ==")
        adapter = WsgiAdapter(c)
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": "/rubis/browse_categories",
            "QUERY_STRING": "",
            "wsgi.input": io.BytesIO(b""),
        }
        status_holder = {}
        body = b"".join(
            adapter(environ, lambda s, h: status_holder.update(status=s))
        )
        print(f"   WSGI GET /rubis/browse_categories -> "
              f"{status_holder['status']}, {len(body)} bytes")
    finally:
        awc.uninstall()
    print("\nDone; application unwoven.")


if __name__ == "__main__":
    main()
