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
  conjuncts, covering;
* a **probe** entry per (index, table, required columns): what one
  index-nested-loop probe of the index costs;
* a **view scan** per (``SelectShape``, view): the SELECT rewritten over
  the view table (:func:`~repro.engine.matview.select_over_view`, the
  rewrite a DBMS backend renders) with its filters and required columns
  read off the rewritten SELECT, or None if the view cannot answer;
* a **select** entry per (``SelectShape``, the tables it reads under
  their current stamps, the indexes on them it could be entered by, the
  views that can answer it): the :class:`SelectChoice` the optimizer
  made — cost, rows, objects used, and which scan, seek, join method and
  EXISTS probe per alias — so that a SELECT is costed once per
  configuration that can matter to it, however many what-if calls,
  UNION branches and candidate indexes on other columns go by.

The table holds numbers, literals, AST conjuncts and references to
catalog objects only, never a plan node or a compiled closure: a plan
is built from a choice when somebody reads it, so every plan registers
its own EXISTS probes.

Keys are the objects themselves (or ``id()`` of an unhashable
:class:`Index`, which its entry keeps alive, so an address is never
reused while its entry lives) — nothing is hashed by content or
rendered. Everything known about a table sits under one stamp: the
``TableStats`` object installed for it and the table's own row count.
``analyze`` / ``set_table_stats`` (which also rewrite column widths)
install a new statistics object and ``insert_rows`` moves the row count,
so the first question after either starts that table afresh (under a
new serial number, which is how a select entry's key names the table as
it stood); indexes, views and tables created or dropped are simply other
objects. What is known about a SELECT is held weakly by its shape: it
goes when the ``Select`` does. The table is dropped from a pickled
database and refilled on first use.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple
from weakref import WeakKeyDictionary

from ..errors import PlanError
from ..sqlast import (And, BoolExpr, ColumnRef, Comparison, ComparisonOp,
                      ExistsShape, IsNull, Literal, Or, Select, SelectShape,
                      conjuncts_of, shape_of)
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


class ProbeCost(NamedTuple):
    per_probe: float
    matches: float                  # rows per probe
    covering: bool


class ViewScan(NamedTuple):
    """One SELECT answered from a join view."""

    select: Select                  # over the view table alone
    filters: Filters                # its WHERE, split for a seek
    required: frozenset[str]
    seek_columns: frozenset[str]    # what an index must lead with


class PathChoice(NamedTuple):
    """The cheapest way to read one table: a scan, or a seek on ``index``."""

    table: Table
    alias: str
    filters: Filters
    cost: float
    rows: float
    index: Index | None = None
    seek: SeekCost | None = None

    def objects_used(self) -> set[str]:
        if self.index is None:
            return {self.table.name}
        if self.seek.covering:
            return {self.index.name}
        return {self.index.name, self.table.name}


class JoinChoice(NamedTuple):
    """One left-deep step: ``inner`` joined onto the aliases bound so
    far — a product without ``outer_alias``; else a hash join on
    ``outer_alias.outer_column = inner.inner_column`` with the step's
    other equalities as ``residual``; or, with ``index``, one probe of
    it per outer row in place of ``inner``'s own path."""

    inner: PathChoice
    outer_alias: str | None
    outer_column: str | None
    inner_column: str | None
    residual: tuple[tuple[str, str, str, str], ...]
    cost: float
    rows: float
    index: Index | None = None
    probe: ProbeCost | None = None

    def objects_used(self) -> set[str]:
        if self.index is None:
            return self.inner.objects_used()
        if self.probe.covering:
            return {self.index.name}
        return {self.index.name, self.inner.table.name}


class ProbeChoice(NamedTuple):
    """How one EXISTS is probed: through ``index`` (``key_values``
    following the correlation value in the seek key, the local predicate
    folded into them) or against the correlation keys of a scan."""

    exists: ExistsShape
    table: Table
    index: Index | None
    key_values: tuple

    def objects_used(self) -> set[str]:
        return {self.table.name if self.index is None else self.index.name}


class SelectChoice(NamedTuple):
    """The optimizer's decision for one SELECT, as data.

    ``cost`` and ``objects`` answer a what-if call; the rest is what
    building the operators reads. ``rewrite`` is the one-table SELECT
    over a join view when that is cheaper than the base tables (then
    ``first`` reads the view and there is nothing else)."""

    cost: float
    rows: float
    objects: tuple[str, ...]
    first: PathChoice
    steps: tuple[JoinChoice, ...] = ()
    multi: tuple[BoolExpr, ...] = ()
    probes: tuple[ProbeChoice, ...] = ()
    rewrite: Select | None = None


class _TableNumbers:
    """Everything computed for one table under one statistics stamp."""

    __slots__ = ("serial", "stats", "table_rows", "rows", "pages", "scans",
                 "indexes", "seeks", "probes")

    def __init__(self, table: Table, stats: TableStats | None, serial: int):
        self.serial = serial
        self.stats = stats
        self.table_rows = table.row_count
        self.rows = stats.row_count if stats is not None else self.table_rows
        self.pages = table.pages_for(self.rows)
        self.scans: dict[Filters, ScanCost] = {}
        #: id(index) -> (index, entries per leaf page, height)
        self.indexes: dict[int, tuple[Index, int, int]] = {}
        self.seeks: dict[tuple, SeekCost] = {}
        self.probes: dict[tuple, ProbeCost] = {}


class _SelectEntries:
    """Everything remembered about one SELECT."""

    __slots__ = ("view_scans", "choices", "held")

    def __init__(self):
        self.view_scans: dict[Table, ViewScan | None] = {}
        #: By table stamps and the ``id()``s of the indexes in ``held``:
        #: no address is handed out again while a key names it.
        self.choices: dict[tuple[int, ...], SelectChoice] = {}
        self.held: dict[int, Index] = {}


class AccessPaths:
    def __init__(self, stats: StatisticsCatalog):
        self.stats = stats
        self._tables: dict[Table, _TableNumbers] = {}
        self._serials = itertools.count(1)
        self._selects: WeakKeyDictionary[SelectShape, _SelectEntries] = \
            WeakKeyDictionary()
        #: Access paths asked for (one per alias per costed candidate)
        #: and scan / seek costings actually carried out.
        self.lookups = 0
        self.scans_costed = 0
        self.seeks_costed = 0
        #: SELECTs the optimizer was asked to plan, and those it had to
        #: cost because no remembered choice answered.
        self.selects_planned = 0
        self.selects_costed = 0

    @property
    def costed(self) -> int:
        return self.scans_costed + self.seeks_costed

    def counters(self) -> dict[str, int]:
        """Asked for and carried out so far, per SELECT and per access
        path, under the names an ``advisor.tune`` span reports them."""
        return {"selects_planned": self.selects_planned,
                "selects_costed": self.selects_costed,
                "access_path_lookups": self.lookups,
                "access_paths_costed": self.costed}

    def _numbers(self, table: Table) -> _TableNumbers:
        stats = self.stats.tables.get(table.name)
        numbers = self._tables.get(table)
        if numbers is None or numbers.stats is not stats \
                or numbers.table_rows != table.row_count:
            numbers = self._tables[table] = _TableNumbers(
                table, stats, next(self._serials))
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

    def _entries(self, shape: SelectShape) -> _SelectEntries:
        entries = self._selects.get(shape)
        if entries is None:
            entries = self._selects[shape] = _SelectEntries()
        return entries

    def view_scan(self, select: Select, view: Table) -> ViewScan | None:
        scans = self._entries(shape_of(select)).view_scans
        if view not in scans:
            try:
                rewritten = select_over_view(select, view)
            except PlanError:
                scans[view] = None
            else:
                filters = split_sargable(conjuncts_of(rewritten.where))
                scans[view] = ViewScan(
                    rewritten, filters,
                    frozenset(col.name for col in view.columns),
                    frozenset(filters.eq) | frozenset(filters.ranges))
        return scans[view]

    def forget_selects(self) -> None:
        """Drop what is remembered per SELECT (numbers per table stay):
        for a caller whose hypothetical indexes and views are going out
        of use, so that no later call can name them."""
        self._selects.clear()

    def stamp(self, table: Table) -> int:
        """A number for everything computed for ``table`` as it stands,
        another after its statistics or row count moved, and no other
        table's: negative, so that it is no object's ``id()`` either."""
        return -self._numbers(table).serial

    def select(self, shape: SelectShape, key: tuple[int, ...],
               indexes: list[Index], cost) -> SelectChoice:
        """The choice remembered for ``shape`` under ``key`` — the
        :meth:`stamp` of every table that matters and the ``id()`` of
        every one of ``indexes``, the indexes that do — else ``cost()``,
        remembered."""
        self.selects_planned += 1
        entries = self._entries(shape)
        choice = entries.choices.get(key)
        if choice is None:
            self.selects_costed += 1
            choice = entries.choices[key] = cost()
            for index in indexes:
                entries.held[id(index)] = index
        return choice

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
                        tuple(residual), covering)

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
