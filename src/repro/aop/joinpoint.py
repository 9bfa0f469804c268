"""Join points: identifiable execution points advice can attach to."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Signature:
    """Static description of a join point: defining class and method."""

    class_name: str
    method_name: str

    def __str__(self) -> str:
        return f"{self.class_name}.{self.method_name}"


class JoinPoint:
    """A single method execution.

    Around advice receives the join point and drives the underlying
    computation with :meth:`proceed`; ``args``/``kwargs`` may be replaced
    before proceeding.  ``result`` and ``exception`` are populated for
    after-advice.
    """

    # Class-level defaults: one is built per around layer of every
    # advised call, and most advice never touches these two.
    result: Any = None
    exception: BaseException | None = None

    def __init__(
        self,
        signature: Signature,
        target: object,
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        invoke: Callable[..., Any],
    ) -> None:
        self.signature = signature
        self.target = target
        self.args = args
        self.kwargs = kwargs
        self._invoke = invoke

    def proceed(self) -> Any:
        """Run the next advice in the chain (or the original method).

        Around advice may call this zero times (bypassing the method
        entirely -- how the cache-hit path works), once (the normal
        case), or multiple times.
        """
        return self._invoke(self.target, *self.args, **self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JoinPoint({self.signature})"
