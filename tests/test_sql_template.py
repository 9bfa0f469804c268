"""Templateization unit tests (the unit of the paper's query analysis)."""

import threading

import pytest

import repro.sql.template as template_module
from repro.sql import ast_nodes as ast
from repro.sql.template import QueryTemplate, prepare, templateize


def test_literals_lifted_left_to_right():
    template, values = templateize("SELECT a FROM t WHERE b = 5 AND c = 'x'")
    assert values == (5, "x")
    assert "?" in template.text
    assert "5" not in template.text


def test_literal_and_parameterised_forms_share_template():
    t1, v1 = templateize("SELECT a FROM t WHERE b = 5 AND c = 'x'")
    t2, v2 = templateize("SELECT a FROM t WHERE b = ? AND c = ?", (9, "y"))
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert v2 == (9, "y")


def test_mixed_literals_and_placeholders():
    template, values = templateize(
        "SELECT a FROM t WHERE b = 5 AND c = ? AND d = 7", ("mid",)
    )
    assert values == (5, "mid", 7)


def test_insert_values_lifted():
    template, values = templateize("INSERT INTO t (a, b) VALUES (1, 'z')")
    assert values == (1, "z")
    assert template.is_write


def test_update_set_and_where_lifted():
    template, values = templateize("UPDATE t SET a = 10 WHERE b = 20")
    assert values == (10, 20)


def test_delete_where_lifted():
    template, values = templateize("DELETE FROM t WHERE b = 3")
    assert values == (3,)


def test_null_is_structural_not_lifted():
    template, values = templateize("SELECT a FROM t WHERE b IS NULL AND c = 1")
    assert values == (1,)
    assert "NULL" in template.text


def test_limit_offset_lifted():
    template, values = templateize("SELECT a FROM t LIMIT 10 OFFSET 20")
    assert values == (10, 20)


def test_template_of_template_is_fixpoint():
    t1, v1 = templateize("SELECT a FROM t WHERE b = 5")
    t2, v2 = templateize(t1.text, v1)
    assert t1 == t2
    assert v1 == v2


def test_bind_roundtrips_values():
    template, values = templateize("SELECT a FROM t WHERE b = 5 AND c = 'x'")
    bound = template.bind(values)
    rebound_template, rebound_values = templateize(bound.unparse())
    assert rebound_template == template
    assert rebound_values == values


def test_bind_with_short_vector_raises():
    template, _values = templateize("SELECT a FROM t WHERE b = 5")
    with pytest.raises(ValueError):
        template.bind(())


def test_missing_parameter_raises():
    with pytest.raises(ValueError):
        templateize("SELECT a FROM t WHERE b = ?", ())


def test_in_list_values_lifted():
    template, values = templateize("SELECT a FROM t WHERE b IN (1, 2, 3)")
    assert values == (1, 2, 3)


def test_between_values_lifted():
    template, values = templateize("SELECT a FROM t WHERE b BETWEEN 2 AND 9")
    assert values == (2, 9)


def test_read_write_flags():
    read, _ = templateize("SELECT a FROM t")
    write, _ = templateize("DELETE FROM t")
    assert read.is_read and not read.is_write
    assert write.is_write and not write.is_read


def test_templates_usable_as_dict_keys():
    t1, _ = templateize("SELECT a FROM t WHERE b = 1")
    t2, _ = templateize("SELECT a FROM t WHERE b = 2")
    d = {t1: "x"}
    assert d[t2] == "x"  # same template text


def test_different_shapes_have_different_templates():
    t1, _ = templateize("SELECT a FROM t WHERE b = 1")
    t2, _ = templateize("SELECT a FROM t WHERE c = 1")
    assert t1 != t2


# -- prepare / bind -------------------------------------------------------------


@pytest.fixture
def parses(monkeypatch):
    """The statement texts ``prepare`` had to parse, in order."""
    seen = []
    parse = template_module.parse_statement

    def counting(sql):
        seen.append(sql)
        return parse(sql)

    monkeypatch.setattr(template_module, "parse_statement", counting)
    return seen


@pytest.fixture
def empty_memo():
    """Start from an empty prepare memo, whatever earlier tests left."""
    template_module._PARAMETERISED.clear()
    template_module._INLINE.clear()


def test_templateize_is_prepare_then_bind():
    sql = "SELECT a FROM prep_t WHERE b = 5 AND c = ? AND d = 7"
    prepared = prepare(sql)
    assert prepared.plan == ((None, 5), (0, None), (None, 7))
    assert prepared.parameter_count == 1
    assert prepared.bind(("mid",)) == templateize(sql, ("mid",))
    assert prepared.bind(["mid"])[1] == (5, "mid", 7)  # lists are accepted


def test_a_text_is_parsed_once(parses):
    sql = "SELECT a FROM prep_once WHERE b = ? AND c = ?"
    first = prepare(sql)
    for k in range(50):
        assert prepare(sql) is first
        assert templateize(sql, (k, "x"))[1] == (k, "x")
    assert parses == [sql]


def test_surplus_parameters_are_ignored():
    _template, values = templateize("SELECT a FROM t WHERE b = ?", (1, 2, 3))
    assert values == (1,)


@pytest.mark.parametrize(
    "sql, params, message",
    [
        (
            "SELECT a FROM t WHERE b = ?",
            (),
            "statement references parameter 0 but only 0 parameters were supplied",
        ),
        (
            "SELECT a FROM t WHERE b = 5 AND c = ? AND d = ?",
            ("x",),
            "statement references parameter 1 but only 1 parameters were supplied",
        ),
        (
            "UPDATE t SET a = ?, b = ? WHERE c = ?",
            (1,),
            "statement references parameter 1 but only 1 parameters were supplied",
        ),
    ],
)
def test_short_parameter_vector_message(sql, params, message):
    for _attempt in range(2):  # first sighting, then memoised
        with pytest.raises(ValueError) as raised:
            templateize(sql, params)
        assert str(raised.value) == message


def test_inline_and_parameterised_spellings_share_one_template_object(empty_memo):
    inline, v1 = templateize("SELECT a FROM prep_share WHERE b = 5 AND c = 'x'")
    param, v2 = templateize("SELECT a FROM prep_share WHERE b = ? AND c = ?", (9, "y"))
    mixed, v3 = templateize("select a from prep_share where b = ? and c = 'z'", (1,))
    assert inline is param is mixed
    assert (v1, v2, v3) == ((5, "x"), (9, "y"), (1, "z"))
    assert prepare(inline.text).template is inline
    # Static facts are computed once and shared with it.
    assert inline.info is param.info
    assert inline.indexable_positions == (0, 1)
    assert inline.equality_columns == {("prep_share", "b"), ("prep_share", "c")}


def test_a_hand_built_template_is_the_interned_one_by_value(empty_memo):
    """Identity is only ever an optimisation: a template built outside
    ``prepare`` (a flushed memo segment, a test) equals and hashes like
    the interned one of the same text, and finds its dictionary slots."""
    interned, _ = templateize("SELECT a FROM prep_hand WHERE b = ?", (1,))
    by_hand = QueryTemplate(text=interned.text, statement=interned.statement)
    assert by_hand is not interned
    assert by_hand == interned and not (by_hand != interned)
    assert hash(by_hand) == hash(interned)
    assert {interned: "slot"}[by_hand] == "slot"
    assert by_hand in {interned}
    other, _ = templateize("SELECT a FROM prep_hand WHERE c = ?", (1,))
    assert by_hand != other
    # Still a value object: fields cannot be rebound.
    with pytest.raises(AttributeError):
        by_hand.text = other.text
    assert repr(by_hand) == repr(interned)
    assert repr(by_hand).startswith("QueryTemplate(text='SELECT a FROM prep_hand")


def test_racing_first_sightings_get_one_object(empty_memo):
    sql = "SELECT a FROM prep_race WHERE b = ? AND c = 3"
    barrier = threading.Barrier(16)
    results = []

    def worker():
        barrier.wait(timeout=10)
        results.append(prepare(sql))

    threads = [threading.Thread(target=worker) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(results) == 16
    assert all(prepared is results[0] for prepared in results)
    assert all(prepared.template is results[0].template for prepared in results)


def test_memo_is_bounded_and_inline_traffic_spares_the_hot_set(empty_memo, parses):
    limit = template_module._SEGMENT_LIMIT
    hot = [
        f"SELECT a FROM prep_hot WHERE c{k} = ? AND d = ?" for k in range(20)
    ]
    prepared_hot = [prepare(sql) for sql in hot]
    for k in range(10_000):
        template, values = templateize(
            f"SELECT a FROM prep_flood WHERE b = {k} AND c = 'v{k}'"
        )
        assert values == (k, f"v{k}")
        assert len(template_module._INLINE) <= limit
        assert len(template_module._PARAMETERISED) <= limit
    assert len(parses) >= 10_000  # the flood really was 10k distinct texts
    del parses[:]
    assert all(prepare(sql) is was for sql, was in zip(hot, prepared_hot))
    assert parses == []  # ...and the hot texts never left the memo


def test_a_full_segment_is_emptied_not_outgrown(empty_memo):
    limit = template_module._SEGMENT_LIMIT
    for k in range(limit + 10):
        prepare(f"SELECT a FROM prep_shape WHERE c{k} = ?")
        assert len(template_module._PARAMETERISED) <= limit
    # Whatever was flushed is simply prepared again, equal by text.
    again, values = templateize("SELECT a FROM prep_shape WHERE c0 = ?", (1,))
    assert again.text == "SELECT a FROM prep_shape WHERE (c0 = ?)"
    assert values == (1,)
