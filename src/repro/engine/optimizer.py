"""Cost-based query optimizer.

For every SELECT branch the optimizer:

1. reads the SELECT's :class:`~repro.sqlast.SelectShape` — per-alias
   filters with their sargable split, equi-join edges, EXISTS
   subqueries, required columns — computed once per ``Select`` object
   by ``repro.sqlast.shape_of`` (nothing is classified or name-resolved
   here: ``Database`` qualifies queries at the door);
2. considers replacing a parent/child join with a matching materialized
   view (column-coverage + join-shape match);
3. picks an access path per alias — sequential scan, index seek, or
   covering (index-only) seek — using histogram selectivities;
4. enumerates left-deep join orders, choosing per edge between hash
   join, index-nested-loop join, and block nested-loop join;
5. compiles residual predicates and output expressions.

The optimizer works identically over materialized and stats-only
catalogs; with ``what_if`` additional hypothetical indexes/views can be
costed without being built, which is how the tuning advisor evaluates
candidate configurations (and how the design search evaluates candidate
mappings without loading data).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from ..errors import CatalogError, PlanError
from ..sqlast import (And, BoolExpr, ColumnRef, Comparison, ComparisonOp,
                      Exists, ExistsShape, IsNull, Literal, Or, Query, Select,
                      SelectShape, conjunction, shape_of)
from ..sqlast.shape import RANGE_OPS, Filters, map_scalars, split_sargable
from .cost import (CPU_OPERATOR_COST, CPU_TUPLE_COST, HASH_TUPLE_COST,
                   RANDOM_PAGE_COST, SEQ_PAGE_COST, SORT_FACTOR)
from .expressions import Environment, compile_predicate, compile_scalar
from .index import Index
from .plans import (HashJoin, IndexNestedLoopJoin, IndexSeek, NestedLoopJoin,
                    PlanNode, Project, Runtime, SeqScan, SortPlan,
                    UnionAllPlan)
from .schema import Catalog, Table
from .statistics import ColumnStats, StatisticsCatalog
from .types import PAGE_FILL_FACTOR, PAGE_SIZE

_DEFAULT_EQ_SEL = 0.005
_DEFAULT_RANGE_SEL = 0.30
_DEFAULT_NULL_SEL = 0.05


# ----------------------------------------------------------------------
# EXISTS probes
# ----------------------------------------------------------------------


class ExistsProbe:
    """A compiled EXISTS subquery, probed once per candidate row.

    Bound to a runtime before execution; probes either an index seek or
    a set of correlation keys materialized on first use.
    """

    def __init__(self, table_name: str, alias: str,
                 corr_column: str, corr_outer: ColumnRef,
                 index: Index | None,
                 local_predicate: Callable[[Environment], bool] | None,
                 resolve_outer: Callable[[ColumnRef], tuple[str, int]],
                 extra_key_values: tuple = ()):
        self.table_name = table_name
        self.alias = alias
        self.corr_column = corr_column
        self.corr_outer = corr_outer
        self.index = index
        self.local_predicate = local_predicate
        self.extra_key_values = extra_key_values
        self._outer_fetch = compile_scalar(corr_outer, resolve_outer)
        self._runtime: Runtime | None = None
        self._key_set: set | None = None

    def bind(self, runtime: Runtime) -> None:
        self._runtime = runtime
        self._key_set = None

    def objects_used(self) -> set[str]:
        if self.index is not None:
            return {self.index.name}
        return {self.table_name}

    def __call__(self, env: Environment) -> bool:
        runtime = self._runtime
        if runtime is None:
            raise PlanError("EXISTS probe executed without bind()")
        outer_value = self._outer_fetch(env)
        if outer_value is None:
            return False
        if self.index is not None:
            table = runtime.table(self.table_name)
            runtime.counter.charge_random_pages(self.index.height(table))
            key = (outer_value,) + self.extra_key_values
            for _, position in self.index.tree.range_scan(key, key):
                runtime.counter.charge_tuples(1)
                if self.local_predicate is None:
                    return True
                if self.local_predicate({self.alias: table.rows[position]}):
                    return True
            return False
        if self._key_set is None:
            table = runtime.table(self.table_name)
            runtime.counter.charge_seq_pages(table.page_count)
            corr_pos = table.column_position(self.corr_column)
            keys = set()
            for row in table.rows or ():
                runtime.counter.charge_tuples(1)
                if self.local_predicate is None or \
                        self.local_predicate({self.alias: row}):
                    keys.add(row[corr_pos])
            self._key_set = keys
        runtime.counter.charge_operations(1)
        return outer_value in self._key_set


# ----------------------------------------------------------------------
# Planned query container
# ----------------------------------------------------------------------


@dataclass
class PlannedQuery:
    """The optimizer's output for one SQL query."""

    root: SortPlan | UnionAllPlan | Project
    est_cost: float
    probes: list[ExistsProbe] = field(default_factory=list)
    branch_plans: list[PlanNode] = field(default_factory=list)

    def objects_used(self) -> frozenset[str]:
        used = set(self.root.objects_used())
        for probe in self.probes:
            used |= probe.objects_used()
        return frozenset(used)

    def prepare(self, runtime: Runtime) -> None:
        for probe in self.probes:
            probe.bind(runtime)

    def explain(self) -> str:
        return self.root.explain()


# ----------------------------------------------------------------------
# The optimizer
# ----------------------------------------------------------------------


class Optimizer:
    def __init__(self, catalog: Catalog, stats: StatisticsCatalog,
                 what_if: bool = False,
                 extra_indexes: list[Index] | None = None,
                 extra_tables: list[Table] | None = None):
        self.catalog = catalog
        self.stats = stats
        self.what_if = what_if
        self.extra_indexes = list(extra_indexes or [])
        self.extra_tables = {t.name: t for t in (extra_tables or [])}

    # -- catalog helpers -------------------------------------------------
    def _table(self, name: str) -> Table:
        if name in self.extra_tables:
            return self.extra_tables[name]
        return self.catalog.table(name)

    def _indexes_on(self, table_name: str) -> list[Index]:
        indexes = [ix for ix in self.catalog.indexes.values()
                   if ix.table_name == table_name]
        indexes += [ix for ix in self.extra_indexes
                    if ix.table_name == table_name]
        if not self.what_if:
            indexes = [ix for ix in indexes if ix.is_built or ix.clustered]
        return indexes

    def _column_stats(self, table_name: str, column: str) -> ColumnStats | None:
        return self.stats.column(table_name, column)

    # -- public API ------------------------------------------------------
    def plan(self, query: Query) -> PlannedQuery:
        probes: list[ExistsProbe] = []
        branches: list[Project] = []
        branch_plans: list[PlanNode] = []
        total_cost = 0.0
        total_rows = 0.0
        for select in query.selects:
            project, cost, rows = self._plan_select(select, probes)
            branches.append(project)
            branch_plans.append(project)
            total_cost += cost
            total_rows += rows
        if len(branches) == 1:
            top: SortPlan | UnionAllPlan | Project = branches[0]
        else:
            top = UnionAllPlan(branches)
            top.est_rows = total_rows
            top.est_cost = total_cost
        if query.order_by:
            sort = SortPlan(top, query.order_by)
            sort.est_rows = total_rows
            sort_cost = (total_rows * math.log2(max(total_rows, 2))
                         * SORT_FACTOR)
            total_cost += sort_cost
            sort.est_cost = total_cost
            top = sort
        return PlannedQuery(root=top, est_cost=total_cost, probes=probes,
                            branch_plans=branch_plans)

    # -- per-select planning ----------------------------------------------
    def _plan_select(self, select: Select,
                     probes_out: list[ExistsProbe]) -> tuple[Project, float, float]:
        candidates = [self._plan_select_over(select, None)]
        for view in self._candidate_views(select):
            try:
                candidates.append(self._plan_select_over(select, view))
            except PlanError:
                continue
        best = min(candidates, key=lambda c: c[1])
        probes_out.extend(best[3])
        return best[0], best[1], best[2]

    def _candidate_views(self, select: Select) -> list[Table]:
        views = [t for t in self.catalog.views()]
        views += [t for t in self.extra_tables.values() if t.is_view]
        if not self.what_if:
            views = [v for v in views if v.is_materialized]
        tables = {t.table for t in select.from_tables}
        out = []
        for view in views:
            assert view.view_def is not None
            if tables == {view.view_def.parent_table, view.view_def.child_table}:
                out.append(view)
        return out

    def _plan_select_over(self, select: Select, view: Table | None):
        """Plan one SELECT, optionally substituting a join view."""
        shape = shape_of(select)
        if any(e.owner is None for e in shape.top_exists):
            raise PlanError("EXISTS must correlate with exactly one alias")
        alias_tables = {alias: self._table(name)
                        for alias, name in shape.alias_tables.items()}
        # (alias, column) -> (env_alias, position): a view substitutes
        # its own layout, base tables answer from their column index.
        binding = (None if view is None
                   else self._view_binding(shape, view, alias_tables))

        def resolve(ref: ColumnRef) -> tuple[str, int]:
            try:
                if binding is not None:
                    return binding[(ref.table, ref.column)]
                return (ref.table,
                        alias_tables[ref.table].column_position(ref.column))
            except (KeyError, CatalogError):
                raise PlanError(f"cannot resolve column {ref}") from None

        # One probe per EXISTS, at whatever depth a filter holds it.
        probes: dict[ExistsShape, ExistsProbe] = {}

        def probe_for(node: Exists) -> ExistsProbe:
            exists = shape.exists_shape(node)
            if exists not in probes:
                probes[exists] = self._build_probe(exists, resolve)
            return probes[exists]

        def compile_bool(expr: BoolExpr) -> Callable[[Environment], bool]:
            return compile_predicate(expr, resolve, probe_for)

        if view is None:
            plan, cost, rows = self._plan_joins(
                shape, alias_tables, compile_bool, resolve)
        else:
            plan, cost, rows = self._plan_view_scan(
                shape, view, alias_tables, compile_bool, binding)

        exprs = [compile_scalar(item.expr, resolve) for item in select.items]
        project = Project(plan, exprs)
        cost += rows * CPU_TUPLE_COST
        project.est_rows = rows
        project.est_cost = cost
        return project, cost, rows, list(probes.values())

    # ------------------------------------------------------------------
    # View substitution
    # ------------------------------------------------------------------
    def _view_binding(self, shape: SelectShape, view: Table,
                      alias_tables: dict[str, Table]) -> dict:
        assert view.view_def is not None
        source_of = {name: src for name, src in view.view_def.columns}
        table_alias = {table.name: alias
                       for alias, table in alias_tables.items()}
        binding: dict[tuple[str, str], tuple[str, int]] = {}
        for position, col in enumerate(view.columns):
            # The view's own columns are addressable under the "@view"
            # alias (used by filters rewritten onto the view).
            binding[("@view", col.name)] = ("@view", position)
            src = source_of.get(col.name)
            if src is None:
                continue
            src_table, src_col = src
            alias = table_alias.get(src_table)
            if alias is not None:
                binding[(alias, src_col)] = ("@view", position)
        # Verify every referenced column of the select is bound; the
        # join columns implied by the view definition are exempt.
        join_exempt = {(la, lc) for la, lc, _, _ in shape.joins} | \
                      {(ra, rc) for _, _, ra, rc in shape.joins}
        for alias, columns in shape.required.items():
            for column in columns:
                key = (alias, column)
                if key not in join_exempt and key not in binding:
                    raise PlanError(
                        f"view {view.name!r} does not cover column {key}")
        return binding

    def _plan_view_scan(self, shape: SelectShape, view: Table,
                        alias_tables, compile_bool, binding):
        """Plan the select as a scan/seek over the substituted view."""
        filters: list[BoolExpr] = []
        for alias_filters in shape.filters.values():
            filters.extend(alias_filters.all)
        filters.extend(shape.multi)
        # Join conjuncts between the two source tables are implied by the
        # view itself; any other join is unplannable here.
        assert view.view_def is not None
        pair = {view.view_def.parent_table, view.view_def.child_table}
        for la, lc, ra, rc in shape.joins:
            ta = alias_tables[la].name
            tb = alias_tables[ra].name
            if {ta, tb} != pair:
                raise PlanError("view does not cover this join")
        rewritten = self._rewrite_filters_for_view(filters, view, binding)
        return self._best_access_path(
            view, "@view", split_sargable(rewritten), compile_bool,
            self._view_required_columns(view, binding))

    @staticmethod
    def _view_required_columns(view: Table, binding) -> frozenset[str]:
        return frozenset(view.columns[pos].name for env, pos in binding.values()
                         if env == "@view")

    @staticmethod
    def _rewrite_filters_for_view(filters, view, binding):
        """Map filter column refs onto the view's own columns."""
        def rewrite_ref(expr):
            if not isinstance(expr, ColumnRef):
                return expr
            env, pos = binding[(expr.table, expr.column)]
            return ColumnRef("@view", view.columns[pos].name)

        def refuse(node: Exists):
            raise PlanError(f"cannot push {node!r} into a view scan")

        return [map_scalars(f, rewrite_ref, refuse) for f in filters]

    # ------------------------------------------------------------------
    # EXISTS probe construction
    # ------------------------------------------------------------------
    def _build_probe(self, shape: ExistsShape, resolve) -> ExistsProbe:
        if shape.table is None:
            raise PlanError("EXISTS subqueries must reference one table")
        if shape.corr_column is None:
            raise PlanError("EXISTS subquery must have a correlation equality")
        inner_table = self._table(shape.table)

        # Pick an index whose leading key is the correlation column; if
        # the next key column carries an equality local predicate, fold
        # it into the seek key.
        best_index = None
        extra_values: tuple = ()
        for index in self._indexes_on(inner_table.name):
            if index.clustered or index.key_columns[0] != shape.corr_column:
                continue
            values: tuple = ()
            if len(index.key_columns) > 1 and len(shape.local_parts) == 1 \
                    and shape.eq_parts \
                    and shape.eq_parts[0].left.column == index.key_columns[1]:
                values = (shape.eq_parts[0].right.value,)
            if best_index is None or len(values) > len(extra_values):
                best_index = index
                extra_values = values

        local_predicate = None
        remaining = () if extra_values else shape.local_parts
        if remaining:
            def resolve_inner(ref: ColumnRef):
                if ref.table == shape.alias:
                    return shape.alias, inner_table.column_position(ref.column)
                raise PlanError(f"unexpected outer reference {ref} in EXISTS")
            local_predicate = compile_predicate(conjunction(remaining),
                                                resolve_inner)
        return ExistsProbe(
            table_name=inner_table.name,
            alias=shape.alias,
            corr_column=shape.corr_column,
            corr_outer=shape.corr_outer,
            index=best_index,
            local_predicate=local_predicate,
            resolve_outer=resolve,
            extra_key_values=extra_values,
        )

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
            stats = self._column_stats(table.name, column)
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
            stats = self._column_stats(table.name, expr.operand.column)
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

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def _best_access_path(self, table: Table, alias: str,
                          split: Filters, compile_bool,
                          required_columns: frozenset[str]):
        """Cheapest scan/seek for one table. Returns (plan, cost, rows)."""
        filters = split.all
        rows_in = self._row_count(table)
        selectivity = 1.0
        for expr in filters:
            selectivity *= self._conjunct_selectivity(table, expr)
        rows_out = max(rows_in * selectivity, 0.0)
        predicate = compile_bool(split.combined) if filters else None

        pages = self._page_count(table, rows_in)
        best_plan: PlanNode = SeqScan(table.name, alias, predicate)
        best_cost = (pages * SEQ_PAGE_COST
                     + rows_in * CPU_TUPLE_COST
                     + rows_in * len(filters) * CPU_OPERATOR_COST)
        best_plan.est_rows = rows_out
        best_plan.est_cost = best_cost

        for index in self._indexes_on(table.name):
            seek = self._try_index_seek(index, table, alias, split,
                                        compile_bool, required_columns,
                                        rows_in)
            if seek is None:
                continue
            plan, cost = seek
            if cost < best_cost:
                best_plan, best_cost = plan, cost
                best_plan.est_rows = rows_out
                best_plan.est_cost = cost
        return best_plan, best_cost, rows_out

    def _row_count(self, table: Table) -> int:
        table_stats = self.stats.table(table.name)
        if table_stats is not None:
            return table_stats.row_count
        return table.row_count

    def _page_count(self, table: Table, rows: int) -> int:
        usable = PAGE_SIZE * PAGE_FILL_FACTOR
        per_page = max(1, int(usable // table.row_width))
        return max(1, math.ceil(rows / per_page))

    def _try_index_seek(self, index: Index, table: Table, alias: str,
                        split: Filters, compile_bool,
                        required_columns: frozenset[str], rows_in: int):
        """Build an IndexSeek over constant predicates, if sargable."""
        eq_values = {column: self._coerce(table, column, value)
                     for column, value in split.eq.items()}
        range_pred = {column: (op, self._coerce(table, column, value))
                      for column, (op, value) in split.ranges.items()}

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
        if not prefix and range_column is None:
            return None  # nothing to seek by; the scan is already costed

        seek_sel = 1.0
        residual_filters: list[BoolExpr] = list(split.other)
        used_eq = set(prefix)
        for column, value in eq_values.items():
            expr = Comparison(ColumnRef(alias, column), ComparisonOp.EQ,
                              Literal(value))
            if column in used_eq:
                seek_sel *= self._conjunct_selectivity(table, expr)
            else:
                residual_filters.append(expr)
        bounds = None
        if range_column is not None:
            op, value = range_pred.pop(range_column)
            expr = Comparison(ColumnRef(alias, range_column), op, Literal(value))
            seek_sel *= self._conjunct_selectivity(table, expr)
            if op in (ComparisonOp.GT, ComparisonOp.GE):
                bounds = (value, op == ComparisonOp.GE, None, True)
            else:
                bounds = (None, True, value, op == ComparisonOp.LE)
        for column, (op, value) in range_pred.items():
            residual_filters.append(
                Comparison(ColumnRef(alias, column), op, Literal(value)))

        matched = max(rows_in * seek_sel, 0.0)
        covering = index.covers(required_columns, table)
        entries_per_page = max(1, int(
            PAGE_SIZE * PAGE_FILL_FACTOR // index.entry_width(table)))
        cost = (index.height(table) * RANDOM_PAGE_COST
                + (matched / entries_per_page) * SEQ_PAGE_COST
                + matched * CPU_TUPLE_COST
                + matched * len(residual_filters) * CPU_OPERATOR_COST)
        if not covering:
            cost += matched * RANDOM_PAGE_COST

        residual = (compile_bool(conjunction(residual_filters))
                    if residual_filters else None)
        eq_exprs = [(lambda v: (lambda env: v))(eq_values[c]) for c in prefix]
        plan = IndexSeek(index, table.name, alias, eq_exprs,
                         range_bounds=bounds, residual=residual,
                         covering=covering)
        plan.est_leaf_pages = matched / entries_per_page
        plan.est_fetches = 0.0 if covering else matched
        return plan, cost

    # ------------------------------------------------------------------
    # Join planning
    # ------------------------------------------------------------------
    def _plan_joins(self, shape: SelectShape, alias_tables: dict[str, Table],
                    compile_bool, resolve):
        aliases = list(alias_tables)
        if len(aliases) == 1:
            alias = aliases[0]
            plan, cost, rows = self._best_access_path(
                alias_tables[alias], alias, shape.filters[alias],
                compile_bool, shape.required[alias])
            if shape.multi:
                raise PlanError("multi-alias predicate with one table")
            return plan, cost, rows

        orders = (itertools.permutations(aliases)
                  if len(aliases) <= 4 else [tuple(aliases)])
        best = None
        for order in orders:
            try:
                planned = self._plan_join_order(
                    list(order), shape, alias_tables, compile_bool, resolve)
            except PlanError:
                continue
            if best is None or planned[1] < best[1]:
                best = planned
        if best is None:
            raise PlanError("no feasible join order")
        return best

    def _plan_join_order(self, order, shape: SelectShape, alias_tables,
                         compile_bool, resolve):
        first = order[0]
        plan, cost, rows = self._best_access_path(
            alias_tables[first], first, shape.filters[first], compile_bool,
            shape.required[first])
        bound = {first}
        for alias in order[1:]:
            edge = [(la, lc, ra, rc) for la, lc, ra, rc in shape.joins
                    if (la in bound and ra == alias)
                    or (ra in bound and la == alias)]
            plan, cost, rows = self._join_step(
                plan, cost, rows, bound, alias, alias_tables,
                shape.filters[alias], edge, compile_bool, resolve,
                shape.required[alias])
            bound.add(alias)
        if shape.multi:
            predicate = compile_bool(conjunction(shape.multi))
            filtered = _FilterWrap(plan, predicate)
            filtered.est_rows = rows * 0.5
            filtered.est_cost = cost + rows * CPU_OPERATOR_COST
            plan, rows = filtered, rows * 0.5
            cost += rows * CPU_OPERATOR_COST
        return plan, cost, rows

    def _join_step(self, outer_plan, outer_cost, outer_rows, bound, alias,
                   alias_tables, split: Filters, edge, compile_bool, resolve,
                   required: frozenset[str]):
        inner_table = alias_tables[alias]
        inner_rows_total = self._row_count(inner_table)
        inner_filters = split.all
        if not edge:
            # Cartesian product (never produced by the translator, but
            # legal SQL): block nested loop.
            inner_plan, inner_cost, inner_rows = self._best_access_path(
                inner_table, alias, split, compile_bool, required)
            join = NestedLoopJoin(outer_plan, inner_plan)
            rows = outer_rows * inner_rows
            cost = (outer_cost + inner_cost
                    + outer_rows * inner_rows * CPU_OPERATOR_COST)
            join.est_rows, join.est_cost = rows, cost
            return join, cost, rows

        # Join selectivity from the first edge's key distinctness.
        la, lc, ra, rc = edge[0]
        if la in bound:
            outer_alias, outer_col, inner_col = la, lc, rc
        else:
            outer_alias, outer_col, inner_col = ra, rc, lc
        inner_stats = self._column_stats(inner_table.name, inner_col)
        outer_stats = self._column_stats(alias_tables[outer_alias].name, outer_col)
        distinct = max(
            inner_stats.n_distinct if inner_stats else 0,
            outer_stats.n_distinct if outer_stats else 0,
            1)
        local_sel = 1.0
        for expr in inner_filters:
            local_sel *= self._conjunct_selectivity(inner_table, expr)
        join_rows = max(
            outer_rows * inner_rows_total * local_sel / distinct, 0.0)

        candidates = []

        # Hash join: build on inner access path, probe outer.
        inner_plan, inner_cost, inner_rows = self._best_access_path(
            inner_table, alias, split, compile_bool, required)
        build_keys = [compile_scalar(ColumnRef(alias, inner_col), resolve)]
        probe_keys = [compile_scalar(ColumnRef(outer_alias, outer_col), resolve)]
        residual = self._edge_residual(edge[1:], compile_bool)
        hash_plan = HashJoin(inner_plan, outer_plan, build_keys, probe_keys,
                             residual)
        hash_cost = (outer_cost + inner_cost
                     + (inner_rows + outer_rows) * HASH_TUPLE_COST)
        hash_plan.est_rows, hash_plan.est_cost = join_rows, hash_cost
        candidates.append((hash_plan, hash_cost))

        # Index nested loop join: index on inner join column.
        for index in self._indexes_on(inner_table.name):
            if index.key_columns[0] != inner_col:
                continue
            covering = index.covers(required, inner_table)
            matches_per_probe = max(
                inner_rows_total / max(
                    inner_stats.n_distinct if inner_stats else inner_rows_total, 1),
                0.0)
            per_probe = (index.height(inner_table) * RANDOM_PAGE_COST
                         + matches_per_probe * CPU_TUPLE_COST)
            if not covering:
                per_probe += matches_per_probe * RANDOM_PAGE_COST
            inlj_cost = outer_cost + outer_rows * per_probe
            if inlj_cost >= hash_cost and inlj_cost >= candidates[0][1]:
                continue
            inner_residual = (compile_bool(split.combined)
                              if inner_filters else None)
            eq_exprs = [compile_scalar(ColumnRef(outer_alias, outer_col), resolve)]
            seek = IndexSeek(index, inner_table.name, alias, eq_exprs,
                             residual=inner_residual, covering=covering)
            seek.est_rows = matches_per_probe
            inlj = IndexNestedLoopJoin(outer_plan, seek)
            inlj.est_rows, inlj.est_cost = join_rows, inlj_cost
            candidates.append((inlj, inlj_cost))

        plan, cost = min(candidates, key=lambda c: c[1])
        return plan, cost, join_rows

    @staticmethod
    def _edge_residual(extra_edges, compile_bool):
        if not extra_edges:
            return None
        return compile_bool(conjunction(
            Comparison(ColumnRef(la, lc), ComparisonOp.EQ, ColumnRef(ra, rc))
            for la, lc, ra, rc in extra_edges))


class _FilterWrap(PlanNode):
    """Residual filter over an environment stream."""

    def __init__(self, child: PlanNode, predicate):
        self.child = child
        self.predicate = predicate

    def label(self) -> str:
        return "Filter"

    def children(self) -> list[PlanNode]:
        return [self.child]

    def execute(self, runtime: Runtime):
        predicate = self.predicate
        for env in self.child.execute(runtime):
            runtime.counter.charge_operations(1)
            if predicate(env):
                yield env
