"""Bind a SELECT once: name resolution and WHERE-clause classification.

:func:`qualify` gives every ``ColumnRef`` its alias at the door, so
nothing downstream guesses which table owns a bare column name.
:func:`shape_of` then classifies a qualified ``Select`` once per object —
conjunct placement, join edges, EXISTS subqueries, sargable predicates,
required columns — and keeps the result on the node. The optimizer and
the physical-design candidate generator read that one
:class:`SelectShape`; neither walks a WHERE tree of its own.
:func:`bind` turns a parameterised query back into the literal one
they read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterable

from ..errors import PlanError
from .ast import (BoolExpr, ColumnRef, Comparison, ComparisonOp, Exists,
                  IsNull, Literal, Parameter, Query, Scalar, Select,
                  SelectItem, conjunction, conjuncts_of, leaves_of)

RANGE_OPS = frozenset({ComparisonOp.LT, ComparisonOp.LE,
                       ComparisonOp.GT, ComparisonOp.GE})


def _column_vs_literal(expr: BoolExpr) -> bool:
    return (isinstance(expr, Comparison) and isinstance(expr.left, ColumnRef)
            and isinstance(expr.right, Literal))


def _column_equality(expr: BoolExpr) -> bool:
    return (isinstance(expr, Comparison) and expr.op == ComparisonOp.EQ
            and isinstance(expr.left, ColumnRef)
            and isinstance(expr.right, ColumnRef))


def refs_of(leaf: BoolExpr) -> list[ColumnRef]:
    """The column references of one leaf; a subquery is not entered."""
    if isinstance(leaf, IsNull):
        return [leaf.operand]
    if isinstance(leaf, Comparison):
        return [side for side in (leaf.left, leaf.right)
                if isinstance(side, ColumnRef)]
    return []


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Filters:
    """Conjuncts over one relation, split the way an index seek reads
    them: the first ``column = literal`` and the first range comparison
    per column can become seek keys, everything else is residual."""

    all: tuple[BoolExpr, ...]
    combined: BoolExpr | None                       # AND of ``all``
    eq: dict[str, object]                           # column -> literal
    ranges: dict[str, tuple[ComparisonOp, object]]  # column -> (op, literal)
    other: tuple[BoolExpr, ...]


def split_sargable(filters: Iterable[BoolExpr]) -> Filters:
    filters = tuple(filters)
    eq: dict[str, object] = {}
    ranges: dict[str, tuple[ComparisonOp, object]] = {}
    other: list[BoolExpr] = []
    for expr in filters:
        if _column_vs_literal(expr):
            column = expr.left.column
            if expr.op == ComparisonOp.EQ and column not in eq:
                eq[column] = expr.right.value
                continue
            if expr.op in RANGE_OPS and column not in ranges:
                ranges[column] = (expr.op, expr.right.value)
                continue
        other.append(expr)
    return Filters(filters, conjunction(filters), eq, ranges, tuple(other))


@dataclass(frozen=True, eq=False)
class ExistsShape:
    """One EXISTS subquery: the table it probes and how it correlates.

    ``table``/``alias`` are None unless the subquery has exactly one
    FROM entry; ``corr_column``/``corr_outer`` are None unless a
    top-level conjunct equates one inner with one non-inner column.
    """

    node: Exists
    table: str | None
    alias: str | None
    corr_column: str | None
    corr_outer: ColumnRef | None
    local_parts: tuple[BoolExpr, ...]   # every non-correlation conjunct
    eq_parts: tuple[Comparison, ...]    # the ``column = literal`` ones
    outer_aliases: frozenset[str]       # non-inner aliases it refers to
    owner: str | None                   # the only one, if exactly one


@dataclass(frozen=True, eq=False)
class SelectShape:
    """Everything planner and advisor need to know about one SELECT."""

    alias_tables: dict[str, str]        # alias -> table name, FROM order
    #: Per alias: single-alias conjuncts, then the top-level EXISTS it owns.
    filters: dict[str, Filters]
    #: Top-level ``A.x = B.y`` conjuncts as (A, x, B, y).
    joins: tuple[tuple[str, str, str, str], ...]
    #: Conjuncts over several aliases, counting the outer aliases of an
    #: EXISTS at any depth.
    multi: tuple[BoolExpr, ...]
    top_exists: tuple[ExistsShape, ...]
    exists: tuple[ExistsShape, ...]     # at any depth, source order
    #: Columns compared with a literal at any AND/OR depth outside
    #: EXISTS, first appearance first: ``=`` / any other operator. What
    #: index candidates are keyed on (``filters`` is what a seek can use).
    key_eq: dict[str, tuple[str, ...]]
    key_range: dict[str, tuple[str, ...]]
    #: Every column referenced outside EXISTS (join columns included).
    required: dict[str, frozenset[str]]
    #: Per table name, EXISTS subqueries' tables included: the columns
    #: an index must lead with to be of any use to this SELECT — the
    #: sargable filter, join and EXISTS-correlation columns of the table.
    seek_columns: dict[str, frozenset[str]]

    def exists_shape(self, node: Exists) -> ExistsShape:
        return next(shape for shape in self.exists if shape.node is node)


def _bind_exists(node: Exists) -> ExistsShape:
    sub = node.subquery
    inner = {t.name for t in sub.from_tables}
    table = alias = corr_column = corr_outer = None
    if len(sub.from_tables) == 1:
        table, alias = sub.from_tables[0].table, sub.from_tables[0].name
    local: list[BoolExpr] = []
    outer: set[str] = set()
    for conjunct in conjuncts_of(sub.where):
        outer.update(ref.table for leaf in leaves_of(conjunct)
                     for ref in refs_of(leaf) if ref.table not in inner)
        if _column_equality(conjunct) and \
                (conjunct.left.table == alias) != (conjunct.right.table == alias):
            sides = (conjunct.left, conjunct.right)
            inner_ref, corr_outer = (sides if conjunct.left.table == alias
                                     else sides[::-1])
            corr_column = inner_ref.column
        else:
            local.append(conjunct)
    return ExistsShape(
        node, table, alias, corr_column, corr_outer, tuple(local),
        tuple(p for p in local
              if _column_vs_literal(p) and p.op == ComparisonOp.EQ),
        frozenset(outer), min(outer) if len(outer) == 1 else None)


def _bind_select(select: Select) -> SelectShape:
    alias_tables = {t.name: t.table for t in select.from_tables}
    local: dict[str, list[BoolExpr]] = {a: [] for a in alias_tables}
    key_eq: dict[str, list[str]] = {a: [] for a in alias_tables}
    key_range: dict[str, list[str]] = {a: [] for a in alias_tables}
    required: dict[str, set[str]] = {a: set() for a in alias_tables}
    joins, multi, top_exists, exists = [], [], [], []

    def known(alias: str, used_in) -> str:
        if alias not in alias_tables:
            raise PlanError(
                f"cannot resolve {used_in}: no alias {alias!r} in FROM")
        return alias

    def require(ref: ColumnRef) -> str:
        required[known(ref.table, ref)].add(ref.column)
        return ref.table

    for item in select.items:
        if isinstance(item.expr, ColumnRef):
            require(item.expr)
    for conjunct in conjuncts_of(select.where):
        aliases: set[str] = set()
        for leaf in leaves_of(conjunct):
            if isinstance(leaf, Exists):
                exists.append(_bind_exists(leaf))
                aliases.update(known(alias, leaf)
                               for alias in sorted(exists[-1].outer_aliases))
            aliases.update(require(ref) for ref in refs_of(leaf))
            if _column_vs_literal(leaf):
                keys = key_eq if leaf.op == ComparisonOp.EQ else key_range
                if leaf.left.column not in keys[leaf.left.table]:
                    keys[leaf.left.table].append(leaf.left.column)
        if isinstance(conjunct, Exists):
            top_exists.append(exists[-1])
        elif _column_equality(conjunct) and \
                conjunct.left.table != conjunct.right.table:
            joins.append((conjunct.left.table, conjunct.left.column,
                          conjunct.right.table, conjunct.right.column))
        elif len(aliases) == 1:
            local[aliases.pop()].append(conjunct)
        else:
            multi.append(conjunct)
    for shape in top_exists:
        if shape.owner is not None:
            local[shape.owner].append(shape.node)
    filters = {alias: split_sargable(parts) for alias, parts in local.items()}
    seek: dict[str, set[str]] = {}
    for alias, table in alias_tables.items():
        seek.setdefault(table, set()).update(filters[alias].eq,
                                             filters[alias].ranges)
    for la, lc, ra, rc in joins:
        seek[alias_tables[la]].add(lc)
        seek[alias_tables[ra]].add(rc)
    for shape in exists:
        if shape.table is not None and shape.corr_column is not None:
            seek.setdefault(shape.table, set()).add(shape.corr_column)
    return SelectShape(
        alias_tables, filters,
        tuple(joins), tuple(multi), tuple(top_exists), tuple(exists),
        {alias: tuple(columns) for alias, columns in key_eq.items()},
        {alias: tuple(columns) for alias, columns in key_range.items()},
        {alias: frozenset(columns) for alias, columns in required.items()},
        {table: frozenset(columns) for table, columns in seek.items()})


def shape_of(select: Select) -> SelectShape:
    """The shape of a qualified SELECT: computed on first use, then kept
    on the node for as long as the node lives."""
    shape = select.__dict__.get("_shape")
    if shape is None:
        shape = select.__dict__["_shape"] = _bind_select(select)
    return shape


# ----------------------------------------------------------------------
# Name resolution
# ----------------------------------------------------------------------


def map_scalars(expr: BoolExpr, scalar: Callable[[Scalar], Scalar],
                exists: Callable[[Exists], BoolExpr]) -> BoolExpr:
    """``expr`` rebuilt with ``scalar(operand)`` for every comparison
    and IS NULL operand outside subqueries and ``exists(node)`` for
    every EXISTS."""
    if isinstance(expr, Comparison):
        return Comparison(scalar(expr.left), expr.op, scalar(expr.right))
    if isinstance(expr, IsNull):
        return IsNull(scalar(expr.operand), expr.negated)
    if isinstance(expr, Exists):
        return exists(expr)
    return type(expr)(tuple(map_scalars(item, scalar, exists)
                            for item in expr.items))


def _map_select(select: Select, scalar: Callable[[Scalar], Scalar],
                exists: Callable[[Exists], BoolExpr]) -> Select:
    return Select(
        tuple(SelectItem(scalar(item.expr), item.alias)
              for item in select.items),
        select.from_tables,
        select.where and map_scalars(select.where, scalar, exists))


def qualify(query: Query,
            columns_of: Callable[[str], Collection[str]]) -> Query:
    """``query`` with every column reference carrying its alias.

    A bare name belongs to the one FROM entry *of its own SELECT* whose
    table (``columns_of(table_name)``) has that column; none or several
    is a :class:`PlanError`, and so is a :class:`Parameter` nobody
    bound. A query with nothing to resolve comes back as the same
    object.
    """
    selects = tuple(_qualify_select(s, columns_of) for s in query.selects)
    if all(new is old for new, old in zip(selects, query.selects)):
        return query
    return Query(selects, query.order_by)


def _qualify_select(select: Select, columns_of) -> Select:
    if "_shape" in select.__dict__:  # bound before, hence qualified
        return select

    def scalar(expr: Scalar) -> Scalar:
        if isinstance(expr, Parameter):
            raise expr.unbound()
        if isinstance(expr, Literal) or expr.table:
            return expr
        owners = [t.name for t in select.from_tables
                  if expr.column in columns_of(t.table)]
        if len(owners) != 1:
            raise PlanError(
                f"column {expr.column!r} is ambiguous or unknown in "
                f"{[t.name for t in select.from_tables]}")
        return ColumnRef(owners[0], expr.column)

    def exists(node: Exists) -> Exists:
        return Exists(_qualify_select(node.subquery, columns_of))

    bound = _map_select(select, scalar, exists)
    return select if bound == select else bound


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------


def bind(query: Query, values: tuple) -> Query:
    """``query`` with ``Literal(values[i - 1])`` for every
    ``Parameter(i)``, subqueries included: the statement a backend runs
    when it is handed the parameterised text and ``values``."""
    def scalar(expr: Scalar) -> Scalar:
        if not isinstance(expr, Parameter):
            return expr
        if not 1 <= expr.index <= len(values):
            raise PlanError(f"no value for parameter {expr}: "
                            f"{len(values)} bound")
        return Literal(values[expr.index - 1])

    def exists(node: Exists) -> Exists:
        return Exists(_map_select(node.subquery, scalar, exists))

    return Query(tuple(_map_select(s, scalar, exists)
                       for s in query.selects), query.order_by)
