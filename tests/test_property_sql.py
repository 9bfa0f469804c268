"""Property-based tests for the SQL front end.

- parse(unparse(ast)) is a fixpoint over generated SELECT/UPDATE/
  INSERT/DELETE statements;
- templateize is stable (template of a template is itself) and value
  vectors round-trip through bind();
- the memoised ``prepare(sql).bind(params)`` pipeline agrees with a
  plan-free, memo-free reference lift.
"""

from __future__ import annotations

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement
from repro.sql.template import prepare, templateize

names = st.sampled_from(["t", "u", "items", "users", "orders"])
columns = st.sampled_from(["a", "b", "c", "price", "qty", "name"])
literals = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    # The alphabet deliberately includes the quote character (exercising
    # '' escaping) and the LIKE metacharacters.
    st.text(
        alphabet="abcxyz '%_0123456789", min_size=0, max_size=8
    ).map(lambda s: s),
)


def literal_expr(value):
    return ast.Literal(value=value)


comparisons = st.sampled_from(["=", "<", ">", "<=", ">=", "<>"])


@st.composite
def predicates(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        column = ast.ColumnRef(column=draw(columns))
        op = draw(comparisons)
        value = literal_expr(draw(literals))
        return ast.BinaryOp(op=op, left=column, right=value)
    op = draw(st.sampled_from(["AND", "OR"]))
    left = draw(predicates(depth=depth + 1))
    right = draw(predicates(depth=depth + 1))
    return ast.BinaryOp(op=op, left=left, right=right)


@st.composite
def selects(draw):
    items = tuple(
        ast.SelectItem(ast.ColumnRef(column=c))
        for c in draw(st.lists(columns, min_size=1, max_size=3, unique=True))
    )
    table = ast.TableRef(name=draw(names))
    where = draw(st.none() | predicates())
    order = tuple(
        ast.OrderItem(ast.ColumnRef(column=c), descending=draw(st.booleans()))
        for c in draw(st.lists(columns, max_size=2, unique=True))
    )
    limit = draw(st.none() | st.integers(0, 50).map(literal_expr))
    return ast.Select(
        items=items,
        tables=(table,),
        where=where,
        order_by=order,
        limit=limit,
        distinct=draw(st.booleans()),
    )


@st.composite
def updates(draw):
    table = draw(names)
    assignments = tuple(
        ast.Assignment(c, literal_expr(draw(literals)))
        for c in draw(st.lists(columns, min_size=1, max_size=3, unique=True))
    )
    where = draw(st.none() | predicates())
    return ast.Update(table=table, assignments=assignments, where=where)


@st.composite
def inserts(draw):
    cols = draw(st.lists(columns, min_size=1, max_size=4, unique=True))
    values = tuple(literal_expr(draw(literals)) for _ in cols)
    return ast.Insert(table=draw(names), columns=tuple(cols), values=values)


@st.composite
def deletes(draw):
    return ast.Delete(table=draw(names), where=draw(st.none() | predicates()))


statements = st.one_of(selects(), updates(), inserts(), deletes())


@settings(max_examples=200)
@given(statements)
def test_parse_unparse_fixpoint(statement):
    text = statement.unparse()
    reparsed = parse_statement(text)
    assert reparsed.unparse() == text


@settings(max_examples=200)
@given(statements)
def test_templateize_stability(statement):
    template, values = templateize(statement.unparse())
    again, values2 = templateize(template.text, values)
    assert again == template
    assert values2 == values


@settings(max_examples=200)
@given(statements)
def test_bind_roundtrip(statement):
    template, values = templateize(statement.unparse())
    bound_text = template.bind(values).unparse()
    template2, values2 = templateize(bound_text)
    assert template2 == template
    assert values2 == values


# -- prepare/bind against a reference lift -----------------------------------------


def rewrite(node, leaf):
    """Rebuild an AST, passing every literal and placeholder to ``leaf``.

    One generic walk over the node dataclasses in field order, which is
    the order the clauses appear in the text -- deliberately not the
    hand-written per-node traversal the implementation uses.
    """
    if isinstance(node, (ast.Literal, ast.Placeholder)):
        return leaf(node)
    if isinstance(node, tuple):
        return tuple(rewrite(child, leaf) for child in node)
    if dataclasses.is_dataclass(node):
        return dataclasses.replace(
            node,
            **{
                f.name: rewrite(getattr(node, f.name), leaf)
                for f in dataclasses.fields(node)
            },
        )
    return node


def reference_lift(sql, params):
    """(template text, value vector) with no memo and no bind plan."""
    values = []

    def leaf(node):
        if isinstance(node, ast.Placeholder):
            values.append(params[node.index])
        elif node.value is None:
            return node  # NULL is structural
        else:
            values.append(node.value)
        return ast.Placeholder(index=len(values) - 1)

    lifted = rewrite(parse_statement(sql), leaf)
    return lifted.unparse(), tuple(values)


def parameterise(statement, choices):
    """Turn some of a literal statement's values into ``?`` parameters."""
    params = []

    def leaf(node):
        if node.value is None or not choices.draw(st.booleans()):
            return node
        params.append(node.value)
        return ast.Placeholder(index=len(params) - 1)

    return rewrite(statement, leaf).unparse(), tuple(params)


@st.composite
def rich_predicates(draw, depth=0):
    """``predicates`` plus NULL tests, IN lists and IN subqueries."""
    column = ast.ColumnRef(column=draw(columns))
    shape = draw(st.integers(0, 5 if depth < 2 else 3))
    if shape == 0:
        return ast.BinaryOp(draw(comparisons), column, literal_expr(draw(literals)))
    if shape == 1:
        return ast.IsNull(column, negated=draw(st.booleans()))
    if shape == 2:
        return ast.BinaryOp("=", column, ast.Literal(value=None))
    if shape == 3:
        items = draw(st.lists(literals, min_size=1, max_size=4))
        return ast.InList(
            column, tuple(literal_expr(v) for v in items), draw(st.booleans())
        )
    if shape == 4:
        inner = ast.Select(
            items=(ast.SelectItem(ast.ColumnRef(column=draw(columns))),),
            tables=(ast.TableRef(name=draw(names)),),
            where=draw(st.none() | rich_predicates(depth=depth + 1)),
            limit=draw(st.none() | st.integers(0, 9).map(literal_expr)),
        )
        return ast.InSubquery(column, inner, draw(st.booleans()))
    return ast.BinaryOp(
        draw(st.sampled_from(["AND", "OR"])),
        draw(rich_predicates(depth=depth + 1)),
        draw(rich_predicates(depth=depth + 1)),
    )


@st.composite
def rich_statements(draw):
    statement = draw(statements)
    if isinstance(statement, ast.Insert):
        return statement
    return dataclasses.replace(
        statement, where=draw(st.none() | rich_predicates())
    )


@settings(max_examples=300)
@given(rich_statements(), st.data())
def test_prepare_bind_matches_reference_lift(statement, choices):
    sql, params = parameterise(statement, choices)
    text, values = reference_lift(sql, params)
    for _sighting in ("first", "memoised"):
        template, bound = prepare(sql).bind(params)
        assert template.text == text
        assert bound == values
    assert templateize(sql, list(params)) == (template, values)
    # The canonical text is its own template, and the value vector
    # round-trips through QueryTemplate.bind().
    assert reference_lift(text, values) == (text, values)
    assert reference_lift(template.bind(bound).unparse(), ()) == (text, values)
