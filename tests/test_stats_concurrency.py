"""Exactness of lock-protected statistics counters under threads.

``JdbcConsistencyAspect`` used to keep its own unlocked
``extra_queries`` integer; concurrent pre-image captures lost
increments (`x += 1` is not atomic).  The counter now lives in
:class:`~repro.cache.stats.CacheStats`, recorded through the facade
under its lock, so under any interleaving the count equals exactly one
per captured pre-image.
"""

from __future__ import annotations

import threading

import pytest

from repro.cache.autowebcache import AutoWebCache
from tests.conftest import build_notes_app

N_THREADS = 8
POSTS_PER_THREAD = 25


@pytest.mark.concurrency
def test_extra_queries_counter_is_exact_under_threads():
    db, container = build_notes_app()
    db.execute(
        "INSERT INTO notes (id, topic, body, score) VALUES (?, ?, ?, ?)",
        (1, "t", "hello", 0),
    )
    awc = AutoWebCache()  # default policy: EXTRA_QUERY
    awc.install(container.servlet_classes)
    try:
        barrier = threading.Barrier(N_THREADS)
        errors: list[BaseException] = []

        def hammer(thread_no: int) -> None:
            try:
                barrier.wait()
                for i in range(POSTS_PER_THREAD):
                    container.post(
                        "/score",
                        {"id": "1", "score": str(thread_no * 1000 + i)},
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(n,)) for n in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # Every score POST is one UPDATE under EXTRA_QUERY: exactly one
        # pre-image capture each, none lost to racing increments.
        expected = N_THREADS * POSTS_PER_THREAD
        assert awc.stats.extra_queries == expected
        # The aspect's legacy attribute delegates to the same counter.
        assert awc.jdbc_aspect.extra_queries == expected
        assert awc.stats.write_requests == expected
    finally:
        awc.uninstall()
