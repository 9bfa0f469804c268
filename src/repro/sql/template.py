"""Query templateization: prepare once, bind per request.

The paper's consistency analysis works on *query templates*: the static
skeleton of a SQL statement with its dynamic values abstracted into ``?``
placeholders, plus the *value vector* holding the concrete values of a
particular instance (Section 3.1, Figure 3).  Two textually different
query strings that differ only in their literal values map to the *same*
template, which is what lets the analysis-result cache (Figure 4)
stabilise to a small fixed set of entries.

All the static work happens once per statement *text*:
:func:`prepare` parses the text, lifts its literals and returns a
:class:`PreparedStatement` -- the interned :class:`QueryTemplate` plus a
*bind plan* saying where each value-vector slot comes from.  The
per-request work, :meth:`PreparedStatement.bind`, is one tuple build.
:func:`templateize` is ``prepare(sql).bind(params)``.

**The prepare memo.**  Prepared statements are memoised per process in
two segments of at most :data:`_SEGMENT_LIMIT` texts each, and a full
segment is emptied before the next text is admitted to it:

- texts that spell no literal inline (every value is a ``?``) are the
  application's own statements, a set bounded by its source code.  They
  also include every template's canonical text, whose entry is what
  interns the template: an inline-literal spelling and a ``?`` spelling
  that normalise to one template share one :class:`QueryTemplate`.
- texts that spell at least one literal inline are data-dependent (one
  text per value), so their number has no bound.  Keeping them apart
  means such traffic -- string-concatenated SQL, the differential
  harness, property tests -- can only ever flush itself, never the
  parameterised hot set.

Hits take no lock (one or two ``dict.get``); admissions serialise on a
lock so the bound is exact and racing first sightings of a text
converge on one object (``dict.setdefault``).  Emptying a segment can
let a later sighting mint a second template for a text that is still
referenced elsewhere; templates therefore compare and hash by ``text``,
and identity is only ever an optimisation.
"""

from __future__ import annotations

import threading
from functools import cached_property
from operator import itemgetter

from repro.sql import ast_nodes as ast
from repro.sql.analysis_info import StatementInfo, extract_info
from repro.sql.parser import parse_statement


class QueryTemplate(tuple):
    """A canonical parameterised statement.

    ``text`` is the canonical SQL with ``?`` placeholders; ``statement``
    is the corresponding AST (containing :class:`~repro.sql.ast_nodes.
    Placeholder` nodes).  Templates hash and compare by ``text`` so they
    can key dictionaries such as the dependency table and the analysis
    cache -- and a miss hashes its templates a few dozen times, so they
    do it the way the one-element tuple ``(text,)`` does: in C, with no
    Python-level ``__hash__``/``__eq__`` to call.  That is all the
    tuple base is for; a template built by hand still equals (and
    hashes like) the interned one of the same text.

    :func:`prepare` interns templates, so the catalog-free static facts
    below are computed once per template and shared by every instance.
    Anything that depends on the schema catalog (column lineage) is
    *not* here: a catalog can be swapped under a live template, so those
    facts live in the analysis engine keyed by catalog.
    """

    def __new__(cls, text: str, statement: ast.Statement) -> "QueryTemplate":
        self = tuple.__new__(cls, (text,))
        self.__dict__["statement"] = statement
        return self

    text: str = property(itemgetter(0))  # type: ignore[assignment]
    statement: ast.Statement

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return f"QueryTemplate(text={self.text!r}, statement={self.statement!r})"

    @cached_property
    def is_read(self) -> bool:
        return self.statement.is_read

    @cached_property
    def is_write(self) -> bool:
        return self.statement.is_write

    @cached_property
    def info(self) -> StatementInfo:
        """Static read/write-set facts for this template."""
        return extract_info(self.statement)

    @cached_property
    def tables(self) -> frozenset[str]:
        """Tables this template references (lower-cased).

        The write-side candidate pruning of the indexed invalidation
        engine keys its inverted table index on exactly this set: two
        templates with disjoint ``tables`` can never depend on one
        another (the pair analysis's ``shared_tables`` precondition).
        """
        return self.info.tables

    @cached_property
    def equality_columns(self) -> frozenset[tuple[str, str]]:
        """(table, column) pairs this template pins with ``column = value``.

        These are the columns the dependency table's per-template value
        index can discriminate instances by.
        """
        return frozenset(
            (binding.table, binding.column)
            for binding in self.info.equality_bindings
        )

    @cached_property
    def indexable_positions(self) -> tuple[int, ...]:
        """Value-vector positions carrying an equality binding, sorted.

        Each position is a slot of the instance value vector that an
        equality predicate compares against; the dependency table builds
        one value-index bucket per position.
        """
        return tuple(
            sorted(
                {
                    binding.value_index
                    for binding in self.info.equality_bindings
                    if binding.value_index is not None
                }
            )
        )

    def bind(self, values: tuple[object, ...]) -> ast.Statement:
        """Return a literal AST with ``values`` substituted for placeholders."""
        return _Binder(values).transform_statement(self.statement)


#: One value-vector slot of a bind plan: ``(i, None)`` takes supplied
#: parameter ``i``, ``(None, value)`` is a literal the text spelled inline.
Slot = tuple[int | None, object]


class PreparedStatement:
    """One statement text, prepared: interned template + bind plan."""

    __slots__ = ("template", "plan", "parameter_count", "_identity")

    def __init__(self, template: QueryTemplate, plan: tuple[Slot, ...]) -> None:
        self.template = template
        self.plan = plan
        indices = [index for index, _literal in plan if index is not None]
        #: How many parameters :meth:`bind` requires.
        self.parameter_count = max(indices) + 1 if indices else 0
        # The common shape -- every slot a parameter, in order -- binds
        # by slicing instead of walking the plan.
        self._identity = indices == list(range(len(plan)))

    def bind(
        self, params: tuple[object, ...] | list[object] = ()
    ) -> tuple[QueryTemplate, tuple[object, ...]]:
        """(template, value vector) for one execution with ``params``."""
        if not isinstance(params, tuple):
            params = tuple(params)
        supplied = len(params)
        if supplied < self.parameter_count:
            missing = next(
                index
                for index, _literal in self.plan
                if index is not None and index >= supplied
            )
            raise ValueError(
                f"statement references parameter {missing} but only "
                f"{supplied} parameters were supplied"
            )
        if self._identity:
            return self.template, params[: self.parameter_count]
        return self.template, tuple(
            [
                literal if index is None else params[index]
                for index, literal in self.plan
            ]
        )


#: Most statement texts each memo segment holds (see the module docstring).
_SEGMENT_LIMIT = 512
_PARAMETERISED: dict[str, PreparedStatement] = {}
_INLINE: dict[str, PreparedStatement] = {}
_ADMIT_LOCK = threading.Lock()


def prepare(sql: str) -> PreparedStatement:
    """The prepared form of ``sql``, parsed at most once while memoised."""
    prepared = _PARAMETERISED.get(sql)
    if prepared is None:
        prepared = _INLINE.get(sql)
        if prepared is None:
            prepared = _prepare_unseen(sql)
    return prepared


def templateize(
    sql: str, params: tuple[object, ...] | list[object] | None = None
) -> tuple[QueryTemplate, tuple[object, ...]]:
    """Normalise ``sql`` (+ optional ``params``) to (template, value vector).

    Literals embedded in the statement text are lifted into the value
    vector in left-to-right order, merged with any explicitly supplied
    parameters at their placeholder positions.
    """
    # :func:`prepare` and the common case of :meth:`PreparedStatement.
    # bind`, read inline: every intercepted statement comes here.
    prepared = _PARAMETERISED.get(sql) or _INLINE.get(sql) or _prepare_unseen(sql)
    if prepared._identity and type(params) is tuple and len(params) >= prepared.parameter_count:
        return prepared.template, params[: prepared.parameter_count]
    return prepared.bind(params or ())


def _prepare_unseen(sql: str) -> PreparedStatement:
    lifter = _LiteralLifter()
    lifted = lifter.transform_statement(parse_statement(sql))
    plan = tuple(lifter.plan)
    text = lifted.unparse()
    # The canonical text's own entry interns the template.
    canonical = _PARAMETERISED.get(text)
    if canonical is None:
        canonical = _admit(
            _PARAMETERISED,
            text,
            PreparedStatement(
                QueryTemplate(text=text, statement=lifted),
                tuple((index, None) for index in range(len(plan))),
            ),
        )
    if sql == text:
        return canonical
    spells_literal = any(index is None for index, _literal in plan)
    return _admit(
        _INLINE if spells_literal else _PARAMETERISED,
        sql,
        PreparedStatement(canonical.template, plan),
    )


def _admit(
    segment: dict[str, PreparedStatement], sql: str, prepared: PreparedStatement
) -> PreparedStatement:
    with _ADMIT_LOCK:
        if len(segment) >= _SEGMENT_LIMIT:
            segment.clear()
        return segment.setdefault(sql, prepared)


class _LiteralLifter:
    """AST transformer replacing literals with placeholders.

    Every non-NULL literal and every placeholder becomes one slot of
    :attr:`plan`, in visit order; the resulting placeholder indices are
    renumbered left-to-right so the canonical template is independent of
    how the query was written.
    """

    def __init__(self) -> None:
        self.plan: list[Slot] = []

    def transform_statement(self, node: ast.Statement) -> ast.Statement:
        if isinstance(node, ast.Select):
            return ast.Select(
                items=tuple(
                    ast.SelectItem(self._expr(i.expression), i.alias)
                    for i in node.items
                ),
                tables=node.tables,
                joins=tuple(
                    ast.Join(j.kind, j.table, self._expr(j.condition))
                    for j in node.joins
                ),
                where=self._opt(node.where),
                group_by=tuple(self._expr(e) for e in node.group_by),
                having=self._opt(node.having),
                order_by=tuple(
                    ast.OrderItem(self._expr(o.expression), o.descending)
                    for o in node.order_by
                ),
                limit=self._opt(node.limit),
                offset=self._opt(node.offset),
                distinct=node.distinct,
            )
        if isinstance(node, ast.Insert):
            return ast.Insert(
                table=node.table,
                columns=node.columns,
                values=tuple(self._expr(v) for v in node.values),
            )
        if isinstance(node, ast.Update):
            return ast.Update(
                table=node.table,
                assignments=tuple(
                    ast.Assignment(a.column, self._expr(a.value))
                    for a in node.assignments
                ),
                where=self._opt(node.where),
            )
        if isinstance(node, ast.Delete):
            return ast.Delete(table=node.table, where=self._opt(node.where))
        return node

    def _opt(self, node: ast.Expression | None) -> ast.Expression | None:
        return None if node is None else self._expr(node)

    def _expr(self, node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.Literal):
            if node.value is None:
                return node  # NULL is structural, not a dynamic value
            return self._new_placeholder((None, node.value))
        if isinstance(node, ast.Placeholder):
            return self._new_placeholder((node.index, None))
        if isinstance(node, ast.BinaryOp):
            return ast.BinaryOp(node.op, self._expr(node.left), self._expr(node.right))
        if isinstance(node, ast.UnaryOp):
            return ast.UnaryOp(node.op, self._expr(node.operand))
        if isinstance(node, ast.IsNull):
            return ast.IsNull(self._expr(node.operand), node.negated)
        if isinstance(node, ast.InList):
            return ast.InList(
                self._expr(node.operand),
                tuple(self._expr(item) for item in node.items),
                node.negated,
            )
        if isinstance(node, ast.InSubquery):
            return ast.InSubquery(
                self._expr(node.operand),
                self.transform_statement(node.select),
                node.negated,
            )
        if isinstance(node, ast.Between):
            return ast.Between(
                self._expr(node.operand),
                self._expr(node.low),
                self._expr(node.high),
                node.negated,
            )
        if isinstance(node, ast.FunctionCall):
            return ast.FunctionCall(
                node.name,
                tuple(self._expr(arg) for arg in node.args),
                node.distinct,
            )
        return node

    def _new_placeholder(self, slot: Slot) -> ast.Placeholder:
        self.plan.append(slot)
        return ast.Placeholder(index=len(self.plan) - 1)


class _Binder(_LiteralLifter):
    """Transformer substituting values back into a template.

    Reuses the traversal of :class:`_LiteralLifter` but turns placeholders
    into literals and leaves literals untouched.
    """

    def __init__(self, values: tuple[object, ...]) -> None:
        super().__init__()
        self._values = values

    def _expr(self, node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.Placeholder):
            try:
                return ast.Literal(value=self._values[node.index])
            except IndexError:
                raise ValueError(
                    f"template references value {node.index} but vector has "
                    f"{len(self._values)} values"
                ) from None
        if isinstance(node, ast.Literal):
            return node
        return super()._expr(node)
