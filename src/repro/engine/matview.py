"""Materialized join views.

The tuning advisor considers two-table join views of the shape the
translated queries use: ``child JOIN parent ON child.fk = parent.ID``.
A view is represented as a :class:`~repro.engine.schema.Table` carrying a
:class:`~repro.engine.schema.JoinViewDefinition`; this module builds the
view's rows from data, derives its statistics without data (what-if
mode), and holds the one rewrite of a SELECT onto a view
(:func:`select_over_view`) that the optimizer costs and the DBMS
backends render.
"""

from __future__ import annotations

from ..errors import CatalogError, PlanError
from ..sqlast import (ColumnRef, Exists, Scalar, Select, SelectItem, TableRef,
                      conjunction, shape_of)
from ..sqlast.shape import map_scalars
from .schema import Column, JoinViewDefinition, Table
from .statistics import StatisticsCatalog, TableStats


def make_view_table(name: str, definition: JoinViewDefinition,
                    parent: Table, child: Table) -> Table:
    """Create the (not yet populated) view table object."""
    columns = []
    for view_col, (source_table, source_col) in definition.columns:
        if source_table == parent.name:
            source = parent.column(source_col)
        elif source_table == child.name:
            source = child.column(source_col)
        else:
            raise CatalogError(
                f"view {name!r} references table {source_table!r} outside "
                f"its definition")
        columns.append(Column(view_col, source.sql_type,
                              nullable=source.nullable,
                              avg_width=source.avg_width))
    view = Table(name, columns, primary_key=None, view_def=definition)
    return view


def populate_view(view: Table, parent: Table, child: Table) -> None:
    """Materialize the join rows into the view table."""
    definition = view.view_def
    assert definition is not None
    if parent.rows is None or child.rows is None:
        raise CatalogError(
            f"cannot populate view {view.name!r}: sources not materialized")
    parent_by_id: dict[object, tuple] = {}
    id_pos = parent.column_position(parent.primary_key or "ID")
    for row in parent.rows:
        parent_by_id[row[id_pos]] = row
    fk_pos = child.column_position(definition.child_fk_column)
    extractors = []
    for _, (source_table, source_col) in definition.columns:
        if source_table == parent.name:
            pos = parent.column_position(source_col)
            extractors.append(("p", pos))
        else:
            pos = child.column_position(source_col)
            extractors.append(("c", pos))
    rows = []
    for child_row in child.rows:
        parent_row = parent_by_id.get(child_row[fk_pos])
        if parent_row is None:
            continue
        rows.append(tuple(
            parent_row[pos] if side == "p" else child_row[pos]
            for side, pos in extractors))
    view.set_rows(rows)


def select_over_view(select: Select, view: Table) -> Select:
    """``select`` answered from ``view``: a one-table SELECT over the
    view table, aliased by its own name, or ``PlanError``.

    Structural — no statistics, no data. The view answers a SELECT
    whose FROM is exactly its (parent, child) pair, whose joins are all
    its own ``child.fk = parent.ID``, and whose items and remaining
    conjuncts name only columns it carries; the join conjuncts are
    implied by the view and dropped, everything else is re-pointed at
    the view's columns in place (a :class:`~repro.sqlast.Parameter`
    stays one, so a parameterised template stays one statement).
    """
    definition = view.view_def
    assert definition is not None
    shape = shape_of(select)
    alias_of = {table: alias for alias, table in shape.alias_tables.items()}
    if len(shape.alias_tables) != 2 or sorted(alias_of) != sorted(
            (definition.parent_table, definition.child_table)):
        raise PlanError(
            f"view {view.name!r} does not join the tables of this SELECT")
    own_join = {(alias_of[definition.parent_table], "ID"),
                (alias_of[definition.child_table],
                 definition.child_fk_column)}
    if not shape.joins or any({(la, lc), (ra, rc)} != own_join
                              for la, lc, ra, rc in shape.joins):
        raise PlanError(f"view {view.name!r} does not cover this join")
    column_of = {(alias_of[table], column): name
                 for name, (table, column) in definition.columns}

    def onto_view(expr: Scalar) -> Scalar:
        if not isinstance(expr, ColumnRef):
            return expr
        try:
            return ColumnRef(view.name, column_of[(expr.table, expr.column)])
        except KeyError:
            raise PlanError(
                f"view {view.name!r} does not cover column {expr}") from None

    def refuse(node: Exists):
        raise PlanError(f"cannot push {node!r} into a view scan")

    for exists in shape.exists:     # at any depth, owned by an alias or not
        refuse(exists.node)
    conjuncts = [conjunct for filters in shape.filters.values()
                 for conjunct in filters.all]
    conjuncts.extend(shape.multi)
    return Select(
        tuple(SelectItem(onto_view(item.expr), item.alias)
              for item in select.items),
        (TableRef(view.name, view.name),),
        conjunction(map_scalars(conjunct, onto_view, refuse)
                    for conjunct in conjuncts))


def derive_view_stats(view: Table, stats: StatisticsCatalog) -> TableStats:
    """Estimate the view table's statistics from its source tables'.

    Each child row joins exactly one parent (FK semantics), so the view
    has the child's cardinality; parent-sourced columns keep their value
    distribution but are re-scaled to the child row count.
    """
    definition = view.view_def
    assert definition is not None
    child_stats = stats.table(definition.child_table)
    child_rows = child_stats.row_count if child_stats else 0
    view_stats = TableStats(row_count=child_rows)
    for view_col, (source_table, source_col) in definition.columns:
        source = stats.column(source_table, source_col)
        if source is None:
            continue
        view_stats.columns[view_col] = source.scaled(child_rows)
    view.row_count_estimate = child_rows
    return view_stats
