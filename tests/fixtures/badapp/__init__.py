"""badapp: a deliberately broken servlet application.

Every rule the static checker knows (RC01..RC04, RC06, PC01..PC03) has
exactly one seeded violation here; the golden test asserts the checker
reports all of them with correct file:line anchors and nothing else.
Keep this app broken -- fixing it breaks the test suite, not the app.
"""

from tests.fixtures.badapp.app import badapp_target

__all__ = ["badapp_target"]
