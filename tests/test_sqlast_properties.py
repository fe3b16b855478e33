"""Property-based round-trip tests for the SQL AST: for any AST the
renderer can produce, ``parse_sql(str(ast)) == ast`` — before and after
the planner has bound it."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlast import (And, ColumnRef, Comparison, ComparisonOp, Exists,
                          IsNull, Literal, Or, Query, Select, SelectItem,
                          TableRef, parse_sql, render, shape_of)

_names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in {"select", "from", "where", "union", "all", "order",
                        "by", "and", "or", "as", "null", "is", "not",
                        "exists"})

_columns = st.builds(ColumnRef, table=_names, column=_names)
_literals = st.one_of(
    st.builds(Literal, st.integers(-10_000, 10_000)),
    st.builds(Literal, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(Literal, st.booleans()),
    st.builds(Literal, st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        max_size=12)),
    st.just(Literal(None)),
)


def _atoms(columns=_columns):
    return st.one_of(
        st.builds(Comparison, left=columns,
                  op=st.sampled_from(list(ComparisonOp)),
                  right=st.one_of(columns, _literals)),
        st.builds(IsNull, operand=columns, negated=st.booleans()))


def _flatten_and(items):
    """Canonical AND: directly nested ANDs flatten (renderer drops the
    parentheses, so only flattened trees round-trip identically)."""
    out = []
    for item in items:
        if isinstance(item, And):
            out.extend(item.items)
        else:
            out.append(item)
    return And(tuple(out))


def _flatten_or(items):
    out = []
    for item in items:
        if isinstance(item, Or):
            out.extend(item.items)
        else:
            out.append(item)
    return Or(tuple(out))


def _bool_exprs(columns=_columns):
    return st.recursive(
        _atoms(columns),
        lambda children: st.one_of(
            st.builds(lambda items: _flatten_and(items),
                      st.lists(children, min_size=2, max_size=3)),
            st.builds(lambda items: _flatten_or(items),
                      st.lists(children, min_size=2, max_size=3)),
        ),
        max_leaves=6)


@st.composite
def selects(draw, width=None, bound=False):
    """``bound``: every column reference names an alias that is in
    scope, as in any query the planner accepts."""
    n_items = width if width is not None else draw(st.integers(1, 4))
    tables = tuple(
        TableRef(draw(_names), draw(_names))
        for _ in range(draw(st.integers(1, 2))))
    inner_table = TableRef(draw(_names), draw(_names))
    columns = inner_columns = _columns
    if bound:
        aliases = [t.name for t in tables]
        columns = st.builds(ColumnRef, st.sampled_from(aliases), _names)
        inner_columns = st.builds(
            ColumnRef, st.sampled_from(aliases + [inner_table.name]), _names)
    items = tuple(SelectItem(draw(st.one_of(columns, _literals)))
                  for _ in range(n_items))
    where = draw(st.one_of(st.none(), _bool_exprs(columns)))
    if draw(st.booleans()):
        inner = Select(
            items=(SelectItem(Literal(1)),),
            from_tables=(inner_table,),
            where=draw(_atoms(inner_columns)))
        exists = Exists(inner)
        where = exists if where is None else _flatten_and([where, exists])
    return Select(items=items, from_tables=tables, where=where)


@st.composite
def queries(draw, bound=False):
    width = draw(st.integers(1, 4))
    n_selects = draw(st.integers(1, 3))
    body = tuple(draw(selects(width=width, bound=bound))
                 for _ in range(n_selects))
    order_by = tuple(draw(st.lists(st.integers(1, width), max_size=2)))
    return Query(selects=body, order_by=order_by)


@given(queries())
@settings(max_examples=200, deadline=None)
def test_roundtrip_single_line(query):
    assert parse_sql(str(query)) == query


@given(queries())
@settings(max_examples=100, deadline=None)
def test_roundtrip_rendered(query):
    assert parse_sql(render(query)) == query


@given(queries())
@settings(max_examples=50, deadline=None)
def test_referenced_tables_stable_under_roundtrip(query):
    reparsed = parse_sql(str(query))
    assert reparsed.referenced_tables == query.referenced_tables


@given(queries(bound=True))
@settings(max_examples=100, deadline=None)
def test_binding_a_query_leaves_no_trace_on_it(query):
    text, digest, blob = str(query), hash(query), pickle.dumps(query)
    for select in query.selects:
        assert shape_of(select) is shape_of(select)
    assert query == parse_sql(text)
    assert hash(query) == digest
    assert pickle.dumps(query) == blob


# ----------------------------------------------------------------------
# Regression cases found by the PR-2 renderer/parser audit
# ----------------------------------------------------------------------

def _one_literal_query(value):
    return Query(selects=(Select(
        items=(SelectItem(Literal(value)),),
        from_tables=(TableRef("t", "t"),), where=None),))


@pytest.mark.parametrize("value", [
    # bools used to render "True"/"False" and re-parse as ColumnRefs
    True, False,
    # exponents used to fail tokenization ("1e+20", "1e-07")
    1e20, 1e-7, -3.5e-12, 6.02e23,
    # plain numerics
    1.0, 0.1, -7, 0,
    # string escaping: embedded quotes, operator chars, keyword look-alikes
    "a'b", "don''t", "<>", "<= '", "NULL", "SELECT", "1995", "",
    "O''Brien", "a\nb",
])
def test_literal_roundtrip_regressions(value):
    query = _one_literal_query(value)
    assert parse_sql(str(query)) == query
    assert parse_sql(render(query)) == query


def test_nonfinite_literal_rendering_raises():
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            str(Literal(value))


def test_bool_literal_renders_as_number():
    assert str(Literal(True)) == "1"
    assert str(Literal(False)) == "0"
