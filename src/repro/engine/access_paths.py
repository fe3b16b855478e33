"""Access-path numbers: what the optimizer computes, kept apart from
what it builds.

A design search costs the same table under the same filters thousands of
times — once per join order, per candidate view, per what-if
configuration — while the answer depends only on the table's statistics
and on objects that outlive the question. One :class:`AccessPaths` table
per :class:`~repro.engine.database.Database` answers each question once:

* a **scan** entry per (table, :class:`~repro.sqlast.shape.Filters`):
  rows in, selectivity, rows out, pages, cost;
* a **seek** entry per (index, table, alias, filters, required columns):
  cost plus the seek's shape — prefix values, range bounds, residual
  conjuncts, covering, leaf pages, fetches;
* a **probe** entry per (index, table, required columns): what one
  index-nested-loop probe of the index costs;
* a **view scan** per (``SelectShape``, view): the SELECT rewritten over
  the view table (:func:`~repro.engine.matview.select_over_view`, the
  rewrite a DBMS backend renders) with its filters and required columns
  read off the rewritten SELECT, or None if the view cannot answer.

The table holds numbers, literals and AST conjuncts only, never a plan
node or a compiled closure: every plan builds its own operators, so
every plan registers its own EXISTS probes.

Keys are the objects themselves (or ``id()`` of an unhashable
:class:`Index`, which its table's entry keeps alive, so an address is
never reused while its entry lives) — nothing is hashed by content or
rendered. Everything known about a table sits under one stamp: the
``TableStats`` object installed for it and the table's own row count.
``analyze`` / ``set_table_stats`` (which also rewrite column widths)
install a new statistics object and ``insert_rows`` moves the row count,
so the first question after either starts that table afresh; indexes,
views and tables created or dropped are simply other objects. The table
is dropped from a pickled database and refilled on first use.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import PlanError
from ..sqlast import (And, BoolExpr, ColumnRef, Comparison, ComparisonOp,
                      IsNull, Literal, Or, Select, SelectShape, conjuncts_of,
                      shape_of)
from ..sqlast.shape import RANGE_OPS, Filters, split_sargable
from .cost import (CPU_OPERATOR_COST, CPU_TUPLE_COST, RANDOM_PAGE_COST,
                   SEQ_PAGE_COST)
from .index import Index
from .matview import select_over_view
from .schema import Table
from .statistics import StatisticsCatalog, TableStats

_DEFAULT_EQ_SEL = 0.005
_DEFAULT_RANGE_SEL = 0.30
_DEFAULT_NULL_SEL = 0.05


class ScanCost(NamedTuple):
    rows_in: int
    selectivity: float
    rows_out: float
    pages: int
    cost: float


class SeekCost(NamedTuple):
    cost: float
    prefix: tuple                   # literals for the leading key columns
    bounds: tuple | None            # ``IndexSeek.range_bounds``
    residual: tuple[BoolExpr, ...]  # conjuncts the seek does not decide
    covering: bool
    leaf_pages: float
    fetches: float


class ProbeCost(NamedTuple):
    per_probe: float
    matches: float                  # rows per probe
    covering: bool


class ViewScan(NamedTuple):
    """One SELECT answered from a join view."""

    select: Select                  # over the view table alone
    filters: Filters                # its WHERE, split for a seek
    required: frozenset[str]


class _TableNumbers:
    """Everything computed for one table under one statistics stamp."""

    __slots__ = ("stats", "table_rows", "rows", "pages", "scans", "indexes",
                 "seeks", "probes")

    def __init__(self, table: Table, stats: TableStats | None):
        self.stats = stats
        self.table_rows = table.row_count
        self.rows = stats.row_count if stats is not None else self.table_rows
        self.pages = table.pages_for(self.rows)
        self.scans: dict[Filters, ScanCost] = {}
        #: id(index) -> (index, entries per leaf page, height)
        self.indexes: dict[int, tuple[Index, int, int]] = {}
        self.seeks: dict[tuple, SeekCost] = {}
        self.probes: dict[tuple, ProbeCost] = {}


class AccessPaths:
    def __init__(self, stats: StatisticsCatalog):
        self.stats = stats
        self._tables: dict[Table, _TableNumbers] = {}
        self._view_scans: dict[tuple[SelectShape, Table], ViewScan | None] = {}
        #: Access paths asked for (one per alias per costed candidate)
        #: and scan / seek costings actually carried out.
        self.lookups = 0
        self.scans_costed = 0
        self.seeks_costed = 0

    @property
    def costed(self) -> int:
        return self.scans_costed + self.seeks_costed

    def _numbers(self, table: Table) -> _TableNumbers:
        stats = self.stats.tables.get(table.name)
        numbers = self._tables.get(table)
        if numbers is None or numbers.stats is not stats \
                or numbers.table_rows != table.row_count:
            numbers = self._tables[table] = _TableNumbers(table, stats)
        return numbers

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def scan(self, table: Table, filters: Filters) -> ScanCost:
        numbers = self._numbers(table)
        cost = numbers.scans.get(filters)
        if cost is None:
            cost = numbers.scans[filters] = self._cost_scan(table, filters,
                                                            numbers)
        return cost

    def seek(self, index: Index, table: Table, alias: str, filters: Filters,
             required: frozenset[str]) -> SeekCost:
        """``index``'s leading key column must be in ``filters.eq`` or
        ``filters.ranges`` (otherwise there is nothing to seek by)."""
        numbers = self._numbers(table)
        key = (id(index), alias, filters, required)
        cost = numbers.seeks.get(key)
        if cost is None:
            cost = numbers.seeks[key] = self._cost_seek(
                index, table, alias, filters, required, numbers)
        return cost

    def probe(self, index: Index, table: Table,
              required: frozenset[str]) -> ProbeCost:
        """One index-nested-loop probe on ``index``'s leading column."""
        numbers = self._numbers(table)
        key = (id(index), required)
        cost = numbers.probes.get(key)
        if cost is None:
            _, _, height = self._index_numbers(index, table, numbers)
            column = self.stats.column(table.name, index.key_columns[0])
            matches = max(
                numbers.rows / max(
                    column.n_distinct if column else numbers.rows, 1),
                0.0)
            covering = index.covers(required, table)
            per_probe = height * RANDOM_PAGE_COST + matches * CPU_TUPLE_COST
            if not covering:
                per_probe += matches * RANDOM_PAGE_COST
            cost = numbers.probes[key] = ProbeCost(per_probe, matches,
                                                   covering)
        return cost

    def view_scan(self, select: Select, view: Table) -> ViewScan | None:
        key = (shape_of(select), view)
        if key not in self._view_scans:
            try:
                rewritten = select_over_view(select, view)
            except PlanError:
                self._view_scans[key] = None
            else:
                self._view_scans[key] = ViewScan(
                    rewritten,
                    split_sargable(conjuncts_of(rewritten.where)),
                    frozenset(col.name for col in view.columns))
        return self._view_scans[key]

    # ------------------------------------------------------------------
    # Costing
    # ------------------------------------------------------------------
    @staticmethod
    def _index_numbers(index: Index, table: Table,
                       numbers: _TableNumbers) -> tuple[Index, int, int]:
        known = numbers.indexes.get(id(index))
        if known is None:
            known = numbers.indexes[id(index)] = (
                index, index.entries_per_page(table), index.height(table))
        return known

    def _cost_scan(self, table: Table, filters: Filters,
                   numbers: _TableNumbers) -> ScanCost:
        self.scans_costed += 1
        rows_in = numbers.rows
        selectivity = 1.0
        for expr in filters.all:
            selectivity *= self._conjunct_selectivity(table, expr)
        return ScanCost(
            rows_in, selectivity, max(rows_in * selectivity, 0.0),
            numbers.pages,
            numbers.pages * SEQ_PAGE_COST
            + rows_in * CPU_TUPLE_COST
            + rows_in * len(filters.all) * CPU_OPERATOR_COST)

    def _cost_seek(self, index: Index, table: Table, alias: str,
                   filters: Filters, required: frozenset[str],
                   numbers: _TableNumbers) -> SeekCost:
        self.seeks_costed += 1
        eq_values = {column: self._coerce(table, column, value)
                     for column, value in filters.eq.items()}
        range_pred = {column: (op, self._coerce(table, column, value))
                      for column, (op, value) in filters.ranges.items()}

        prefix: list[str] = []
        for column in index.key_columns:
            if column in eq_values:
                prefix.append(column)
            else:
                break
        range_column = None
        if len(prefix) < len(index.key_columns):
            next_col = index.key_columns[len(prefix)]
            if next_col in range_pred:
                range_column = next_col
        assert prefix or range_column is not None, "nothing to seek by"

        seek_sel = 1.0
        residual: list[BoolExpr] = list(filters.other)
        for column, value in eq_values.items():
            expr = Comparison(ColumnRef(alias, column), ComparisonOp.EQ,
                              Literal(value))
            if column in prefix:
                seek_sel *= self._conjunct_selectivity(table, expr)
            else:
                residual.append(expr)
        bounds = None
        if range_column is not None:
            op, value = range_pred.pop(range_column)
            expr = Comparison(ColumnRef(alias, range_column), op,
                              Literal(value))
            seek_sel *= self._conjunct_selectivity(table, expr)
            if op in (ComparisonOp.GT, ComparisonOp.GE):
                bounds = (value, op == ComparisonOp.GE, None, True)
            else:
                bounds = (None, True, value, op == ComparisonOp.LE)
        for column, (op, value) in range_pred.items():
            residual.append(
                Comparison(ColumnRef(alias, column), op, Literal(value)))

        matched = max(numbers.rows * seek_sel, 0.0)
        covering = index.covers(required, table)
        _, entries_per_page, height = self._index_numbers(index, table,
                                                          numbers)
        cost = (height * RANDOM_PAGE_COST
                + (matched / entries_per_page) * SEQ_PAGE_COST
                + matched * CPU_TUPLE_COST
                + matched * len(residual) * CPU_OPERATOR_COST)
        if not covering:
            cost += matched * RANDOM_PAGE_COST
        return SeekCost(cost, tuple(eq_values[c] for c in prefix), bounds,
                        tuple(residual), covering,
                        matched / entries_per_page,
                        0.0 if covering else matched)

    # ------------------------------------------------------------------
    # Selectivity
    # ------------------------------------------------------------------
    def _conjunct_selectivity(self, table: Table, expr: BoolExpr) -> float:
        if isinstance(expr, Comparison):
            column, literal = None, None
            if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
                column, literal = expr.left.column, expr.right.value
            elif isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
                column, literal = expr.right.column, expr.left.value
            if column is None:
                return 0.5
            stats = self.stats.column(table.name, column)
            if expr.op == ComparisonOp.EQ:
                if stats is None:
                    return _DEFAULT_EQ_SEL
                return stats.eq_selectivity(self._coerce(table, column, literal))
            if expr.op == ComparisonOp.NE:
                if stats is None:
                    return 1.0 - _DEFAULT_EQ_SEL
                return max(0.0, stats.non_null_fraction
                           - stats.eq_selectivity(self._coerce(table, column, literal)))
            if expr.op in RANGE_OPS:
                if stats is None:
                    return _DEFAULT_RANGE_SEL
                return stats.range_selectivity(
                    expr.op.value, self._coerce(table, column, literal))
            return 0.5
        if isinstance(expr, IsNull):
            stats = self.stats.column(table.name, expr.operand.column)
            if stats is None:
                fraction = _DEFAULT_NULL_SEL
            else:
                fraction = stats.null_fraction
            return 1.0 - fraction if expr.negated else fraction
        if isinstance(expr, And):
            sel = 1.0
            for item in expr.items:
                sel *= self._conjunct_selectivity(table, item)
            return sel
        if isinstance(expr, Or):
            sel = 1.0
            for item in expr.items:
                sel *= 1.0 - self._conjunct_selectivity(table, item)
            return 1.0 - sel
        return 0.5  # EXISTS

    @staticmethod
    def _coerce(table: Table, column: str, literal):
        try:
            return table.column(column).sql_type.coerce(literal)
        except (ValueError, TypeError):
            return literal
