"""Cost-based query optimizer.

For every SELECT branch the optimizer:

1. reads the SELECT's :class:`~repro.sqlast.SelectShape` — per-alias
   filters with their sargable split, equi-join edges, EXISTS
   subqueries, required columns — computed once per ``Select`` object
   by ``repro.sqlast.shape_of`` (nothing is classified or name-resolved
   here: ``Database`` qualifies queries at the door);
2. costs the SELECT over its base tables and over every join view that
   matches it (column coverage + join shape);
3. costs an access path per alias — sequential scan, index seek, or
   covering (index-only) seek — from the database's
   :class:`~repro.engine.access_paths.AccessPaths` numbers (histogram
   selectivities, page and height arithmetic, each computed once per
   database);
4. costs every left-deep join order, choosing per edge between hash
   join and index-nested-loop join (block nested loop for a product);
5. builds operators, compiled predicates and output expressions for the
   cheapest candidate only.

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
from ..sqlast import (BoolExpr, ColumnRef, Comparison, ComparisonOp, Exists,
                      ExistsShape, Query, Select, SelectShape, conjunction,
                      shape_of)
from ..sqlast.shape import Filters
from .access_paths import AccessPaths
from .cost import (CPU_OPERATOR_COST, CPU_TUPLE_COST, HASH_TUPLE_COST,
                   SORT_FACTOR)
from .expressions import Environment, compile_predicate, compile_scalar
from .index import Index
from .plans import (HashJoin, IndexNestedLoopJoin, IndexSeek, NestedLoopJoin,
                    PlanNode, Project, Runtime, SeqScan, SortPlan,
                    UnionAllPlan)
from .schema import Catalog, Table
from .statistics import StatisticsCatalog


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
    """Plans one query at a time over a catalog.

    Costing and building are separate passes. Every access path, join
    order and view candidate of a SELECT is *costed* from the numbers in
    an :class:`AccessPaths` table (the database's, so a number is
    computed once per database rather than once per candidate); each
    costing returns ``(cost, rows, build)``, and only the cheapest
    candidate's ``build`` runs — operators, compiled predicates and
    EXISTS probes exist for the plan that is returned and no other.
    """

    def __init__(self, catalog: Catalog, stats: StatisticsCatalog,
                 paths: AccessPaths, what_if: bool = False,
                 extra_indexes: list[Index] | None = None,
                 extra_tables: list[Table] | None = None):
        self.catalog = catalog
        self.stats = stats
        self.paths = paths
        self.extra_tables = {t.name: t for t in (extra_tables or [])}
        # Usable indexes by table and usable join views by the pair of
        # tables they join; catalog objects come before hypothetical
        # ones, and the first of equally cheap candidates wins.
        self._indexes: dict[str, list[Index]] = {}
        for index in itertools.chain(catalog.indexes.values(),
                                     extra_indexes or ()):
            if what_if or index.is_built or index.clustered:
                self._indexes.setdefault(index.table_name, []).append(index)
        self._views: dict[frozenset[str], list[Table]] = {}
        for view in itertools.chain(catalog.views(),
                                    self.extra_tables.values()):
            if view.view_def is not None and (what_if
                                              or view.is_materialized):
                pair = frozenset((view.view_def.parent_table,
                                  view.view_def.child_table))
                self._views.setdefault(pair, []).append(view)

    # -- catalog helpers -------------------------------------------------
    def _table(self, name: str) -> Table:
        if name in self.extra_tables:
            return self.extra_tables[name]
        return self.catalog.table(name)

    def _indexes_on(self, table_name: str) -> list[Index]:
        return self._indexes.get(table_name, [])

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
        """Cost the SELECT over its base tables and over every join
        view that can answer it; build the cheapest (base first)."""
        shape = shape_of(select)
        if any(e.owner is None for e in shape.top_exists):
            raise PlanError("EXISTS must correlate with exactly one alias")
        alias_tables = {alias: self._table(name)
                        for alias, name in shape.alias_tables.items()}
        cost, rows, build = self._cost_joins(shape, alias_tables)
        cost += rows * CPU_TUPLE_COST
        # What gets built: the SELECT over its base tables, or a view's
        # one-table rewrite of it (no EXISTS in it: the rewrite refuses
        # them), whose rows sit in the environment slot "@view".
        built, layout = select, None
        for view in self._views.get(frozenset(shape.alias_tables.values()), ()):
            scan = self.paths.view_scan(select, view)
            if scan is None:
                continue
            view_cost, view_rows, view_build = self._access_path(
                view, "@view", scan.filters, scan.required)
            view_cost += view_rows * CPU_TUPLE_COST
            if view_cost < cost:
                cost, rows, build = view_cost, view_rows, view_build
                built, layout = scan.select, view

        def resolve(ref: ColumnRef) -> tuple[str, int]:
            try:
                if layout is not None:  # one table, whatever a ref calls it
                    return "@view", layout.column_position(ref.column)
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

        project = Project(
            build(compile_bool, resolve),
            [compile_scalar(item.expr, resolve) for item in built.items])
        project.est_rows = rows
        project.est_cost = cost
        probes_out.extend(probes[exists] for exists in shape.exists
                          if exists in probes)
        return project, cost, rows

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
    # Access paths
    # ------------------------------------------------------------------
    def _access_path(self, table: Table, alias: str, filters: Filters,
                     required: frozenset[str]):
        """Cheapest scan/seek for one table: (cost, rows, build)."""
        paths = self.paths
        paths.lookups += 1
        scan = paths.scan(table, filters)
        cost, best_index, best_seek = scan.cost, None, None
        for index in self._indexes_on(table.name):
            leading = index.key_columns[0]
            if leading not in filters.eq and leading not in filters.ranges:
                continue  # nothing to seek by; the scan is already costed
            seek = paths.seek(index, table, alias, filters, required)
            if seek.cost < cost:
                cost, best_index, best_seek = seek.cost, index, seek

        def build(compile_bool, resolve) -> PlanNode:
            plan: PlanNode
            if best_seek is None:
                plan = SeqScan(table.name, alias,
                               compile_bool(filters.combined)
                               if filters.all else None)
            else:
                plan = IndexSeek(
                    best_index, table.name, alias,
                    [(lambda env, value=value: value)
                     for value in best_seek.prefix],
                    range_bounds=best_seek.bounds,
                    residual=(compile_bool(conjunction(best_seek.residual))
                              if best_seek.residual else None),
                    covering=best_seek.covering)
                plan.est_leaf_pages = best_seek.leaf_pages
                plan.est_fetches = best_seek.fetches
            plan.est_rows = scan.rows_out
            plan.est_cost = cost
            return plan

        return cost, scan.rows_out, build

    # ------------------------------------------------------------------
    # Join planning
    # ------------------------------------------------------------------
    def _cost_joins(self, shape: SelectShape, alias_tables: dict[str, Table]):
        """Cheapest left-deep join order (the first of equals)."""
        aliases = list(alias_tables)
        if len(aliases) == 1:
            if shape.multi:
                raise PlanError("multi-alias predicate with one table")
            alias = aliases[0]
            return self._access_path(alias_tables[alias], alias,
                                     shape.filters[alias],
                                     shape.required[alias])
        orders = (itertools.permutations(aliases)
                  if len(aliases) <= 4 else [tuple(aliases)])
        best = None
        for order in orders:
            costed = self._cost_join_order(order, shape, alias_tables)
            if best is None or costed[0] < best[0]:
                best = costed
        return best

    def _cost_join_order(self, order, shape: SelectShape, alias_tables):
        first = order[0]
        cost, rows, build_first = self._access_path(
            alias_tables[first], first, shape.filters[first],
            shape.required[first])
        steps = []
        bound = {first}
        for alias in order[1:]:
            edge = [(la, lc, ra, rc) for la, lc, ra, rc in shape.joins
                    if (la in bound and ra == alias)
                    or (ra in bound and la == alias)]
            cost, rows, step = self._join_step(
                cost, rows, bound, alias, alias_tables,
                shape.filters[alias], edge, shape.required[alias])
            steps.append(step)
            bound.add(alias)
        joined_rows, joined_cost = rows, cost
        if shape.multi:
            rows = joined_rows * 0.5
            cost = joined_cost + rows * CPU_OPERATOR_COST

        def build(compile_bool, resolve) -> PlanNode:
            plan = build_first(compile_bool, resolve)
            for step in steps:
                plan = step(plan, compile_bool, resolve)
            if shape.multi:
                plan = _FilterWrap(plan,
                                   compile_bool(conjunction(shape.multi)))
                plan.est_rows = rows
                plan.est_cost = joined_cost + joined_rows * CPU_OPERATOR_COST
            return plan

        return cost, rows, build

    def _join_step(self, outer_cost, outer_rows, bound, alias, alias_tables,
                   filters: Filters, edge, required: frozenset[str]):
        """Join ``alias`` onto the bound aliases: (cost, rows, build),
        where ``build`` takes the outer plan first."""
        inner_table = alias_tables[alias]
        inner_cost, inner_rows, build_inner = self._access_path(
            inner_table, alias, filters, required)
        if not edge:
            # Cartesian product (never produced by the translator, but
            # legal SQL): block nested loop.
            rows = outer_rows * inner_rows
            cost = (outer_cost + inner_cost
                    + outer_rows * inner_rows * CPU_OPERATOR_COST)

            def build_product(outer_plan, compile_bool, resolve) -> PlanNode:
                join = NestedLoopJoin(outer_plan,
                                      build_inner(compile_bool, resolve))
                join.est_rows, join.est_cost = rows, cost
                return join

            return cost, rows, build_product

        # Join selectivity from the first edge's key distinctness.
        la, lc, ra, rc = edge[0]
        if la in bound:
            outer_alias, outer_col, inner_col = la, lc, rc
        else:
            outer_alias, outer_col, inner_col = ra, rc, lc
        inner_stats = self.stats.column(inner_table.name, inner_col)
        outer_stats = self.stats.column(alias_tables[outer_alias].name,
                                        outer_col)
        distinct = max(
            inner_stats.n_distinct if inner_stats else 0,
            outer_stats.n_distinct if outer_stats else 0,
            1)
        scan = self.paths.scan(inner_table, filters)
        join_rows = max(
            outer_rows * scan.rows_in * scan.selectivity / distinct, 0.0)

        # Hash join (build on the inner access path, probe the outer)
        # unless probing an index on the inner join column is cheaper.
        cost = outer_cost + inner_cost \
            + (inner_rows + outer_rows) * HASH_TUPLE_COST
        best_index, best_probe = None, None
        for index in self._indexes_on(inner_table.name):
            if index.key_columns[0] != inner_col:
                continue
            probe = self.paths.probe(index, inner_table, required)
            inlj_cost = outer_cost + outer_rows * probe.per_probe
            if inlj_cost < cost:
                cost, best_index, best_probe = inlj_cost, index, probe

        def build(outer_plan, compile_bool, resolve) -> PlanNode:
            outer_key = compile_scalar(ColumnRef(outer_alias, outer_col),
                                       resolve)
            join: PlanNode
            if best_probe is None:
                join = HashJoin(
                    build_inner(compile_bool, resolve), outer_plan,
                    [compile_scalar(ColumnRef(alias, inner_col), resolve)],
                    [outer_key], self._edge_residual(edge[1:], compile_bool))
            else:
                seek = IndexSeek(best_index, inner_table.name, alias,
                                 [outer_key],
                                 residual=(compile_bool(filters.combined)
                                           if filters.all else None),
                                 covering=best_probe.covering)
                seek.est_rows = best_probe.matches
                join = IndexNestedLoopJoin(outer_plan, seek)
            join.est_rows, join.est_cost = join_rows, cost
            return join

        return cost, join_rows, build

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
