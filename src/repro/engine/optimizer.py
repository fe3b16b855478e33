"""Cost-based query optimizer.

For every SELECT branch the optimizer:

1. reads the SELECT's :class:`~repro.sqlast.SelectShape` — per-alias
   filters with their sargable split, equi-join edges, EXISTS
   subqueries, required columns — computed once per ``Select`` object
   by ``repro.sqlast.shape_of`` (nothing is classified or name-resolved
   here: ``Database`` qualifies queries at the door);
2. answers from the :class:`~repro.engine.access_paths.SelectChoice`
   the database remembers for it, if it has costed this SELECT before
   under everything that can matter to it; otherwise
3. costs the SELECT over its base tables and over every join view that
   matches it (column coverage + join shape);
4. costs an access path per alias — sequential scan, index seek, or
   covering (index-only) seek — from the database's
   :class:`~repro.engine.access_paths.AccessPaths` numbers (histogram
   selectivities, page and height arithmetic, each computed once per
   database);
5. costs every left-deep join order, choosing per edge between hash
   join and index-nested-loop join (block nested loop for a product);
6. records the cheapest candidate as a choice — plain data: cost, rows,
   objects used, which path, join method and EXISTS probe per alias.

Operators, compiled predicates and output expressions are built from
the choices when somebody reads the plan (:func:`build_select`), not
before: a what-if call that asks for cost and objects used builds none.

The optimizer works identically over materialized and stats-only
catalogs; with ``what_if`` additional hypothetical indexes/views can be
costed without being built, which is how the tuning advisor evaluates
candidate configurations (and how the design search evaluates candidate
mappings without loading data).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Callable

from ..errors import CatalogError, PlanError
from ..sqlast import (BoolExpr, ColumnRef, Comparison, ComparisonOp, Exists,
                      ExistsShape, Query, Select, SelectShape, conjunction,
                      leaves_of, refs_of, shape_of)
from ..sqlast.shape import Filters
from .access_paths import (AccessPaths, JoinChoice, PathChoice, ProbeChoice,
                           SelectChoice, ViewScan)
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


class PlannedQuery:
    """The optimizer's output for one SQL query.

    ``est_cost`` and :meth:`objects_used` are known from costing.
    ``root``, ``probes`` and ``branch_plans`` — operators, compiled
    predicates, EXISTS probes — are built from the remembered choices
    the first time any of them is read, once per ``PlannedQuery``: a
    what-if call that only asks what a query would cost builds nothing.
    """

    def __init__(self, query: Query, choices: tuple[SelectChoice, ...]):
        self.query = query
        self.choices = choices
        self.est_rows = self._branches_cost = 0.0
        for choice in choices:
            self.est_rows += choice.rows
            self._branches_cost += choice.cost
        self.est_cost = self._branches_cost
        if query.order_by:
            self.est_cost += (self.est_rows
                              * math.log2(max(self.est_rows, 2))
                              * SORT_FACTOR)

    def objects_used(self) -> frozenset[str]:
        return frozenset().union(*(choice.objects
                                   for choice in self.choices))

    @cached_property
    def _built(self) -> tuple[PlanNode, list[ExistsProbe], list[PlanNode]]:
        probes: list[ExistsProbe] = []
        branches = [build_select(select, choice, probes)
                    for select, choice in zip(self.query.selects,
                                              self.choices)]
        if len(branches) == 1:
            top: SortPlan | UnionAllPlan | Project = branches[0]
        else:
            top = UnionAllPlan(branches)
            top.est_rows = self.est_rows
            top.est_cost = self._branches_cost
        if self.query.order_by:
            top = SortPlan(top, self.query.order_by)
            top.est_rows = self.est_rows
            top.est_cost = self.est_cost
        return top, probes, list(branches)

    @property
    def root(self) -> SortPlan | UnionAllPlan | Project:
        return self._built[0]

    @property
    def probes(self) -> list[ExistsProbe]:
        return self._built[1]

    @property
    def branch_plans(self) -> list[PlanNode]:
        return self._built[2]

    def prepare(self, runtime: Runtime) -> None:
        for probe in self.probes:
            probe.bind(runtime)

    def explain(self) -> str:
        return self.root.explain()


# ----------------------------------------------------------------------
# From a choice to operators
# ----------------------------------------------------------------------


def _resolver(tables: dict[str, Table], layout: Table | None = None):
    """Column references to (environment slot, position): in the alias's
    table, or, answering from a view, in the view's one row."""
    def resolve(ref: ColumnRef) -> tuple[str, int]:
        try:
            if layout is not None:  # one table, whatever a ref calls it
                return "@view", layout.column_position(ref.column)
            return ref.table, tables[ref.table].column_position(ref.column)
        except (KeyError, CatalogError):
            raise PlanError(f"cannot resolve column {ref}") from None
    return resolve


def build_select(select: Select, choice: SelectChoice,
                 probes_out: list[ExistsProbe]) -> Project:
    """Operators, compiled predicates and output expressions for what
    :meth:`Optimizer.plan` chose for ``select``; its EXISTS probes are
    appended to ``probes_out``. Everything that could refuse was decided
    when the choice was made."""
    if choice.rewrite is not None:
        # The view's one-table rewrite (no EXISTS in it: the rewrite
        # refuses them), whose rows sit in the environment slot "@view".
        built, resolve = choice.rewrite, _resolver({}, choice.first.table)
    else:
        built, resolve = select, _resolver(
            {path.alias: path.table
             for path in (choice.first, *(s.inner for s in choice.steps))})

    # One probe per EXISTS, at whatever depth a filter holds it.
    probes = [(probe.exists.node, _build_probe(probe, resolve))
              for probe in choice.probes]

    def probe_for(node: Exists) -> ExistsProbe:
        return next(probe for held, probe in probes if held is node)

    def compile_bool(expr: BoolExpr) -> Callable[[Environment], bool]:
        return compile_predicate(expr, resolve, probe_for)

    plan = _build_path(choice.first, compile_bool)
    for step in choice.steps:
        plan = _build_join(plan, step, compile_bool, resolve)
    if choice.multi:
        joined = choice.steps[-1]
        plan = _FilterWrap(plan, compile_bool(conjunction(choice.multi)))
        plan.est_rows = joined.rows * 0.5
        plan.est_cost = joined.cost + joined.rows * CPU_OPERATOR_COST
    project = Project(
        plan, [compile_scalar(item.expr, resolve) for item in built.items])
    project.est_rows = choice.rows
    project.est_cost = choice.cost
    probes_out.extend(probe for _, probe in probes)
    return project


def _build_path(path: PathChoice, compile_bool) -> PlanNode:
    plan: PlanNode
    if path.seek is None:
        plan = SeqScan(path.table.name, path.alias,
                       compile_bool(path.filters.combined)
                       if path.filters.all else None)
    else:
        seek = path.seek
        plan = IndexSeek(
            path.index, path.table.name, path.alias,
            [(lambda env, value=value: value) for value in seek.prefix],
            range_bounds=seek.bounds,
            residual=(compile_bool(conjunction(seek.residual))
                      if seek.residual else None),
            covering=seek.covering)
    plan.est_rows = path.rows
    plan.est_cost = path.cost
    return plan


def _build_join(outer: PlanNode, step: JoinChoice, compile_bool,
                resolve) -> PlanNode:
    inner = step.inner
    join: PlanNode
    if step.outer_alias is None:
        join = NestedLoopJoin(outer, _build_path(inner, compile_bool))
    else:
        outer_key = compile_scalar(
            ColumnRef(step.outer_alias, step.outer_column), resolve)
        if step.probe is None:
            join = HashJoin(
                _build_path(inner, compile_bool), outer,
                [compile_scalar(ColumnRef(inner.alias, step.inner_column),
                                resolve)],
                [outer_key],
                compile_bool(conjunction(
                    Comparison(ColumnRef(la, lc), ComparisonOp.EQ,
                               ColumnRef(ra, rc))
                    for la, lc, ra, rc in step.residual))
                if step.residual else None)
        else:
            seek = IndexSeek(step.index, inner.table.name, inner.alias,
                             [outer_key],
                             residual=(compile_bool(inner.filters.combined)
                                       if inner.filters.all else None),
                             covering=step.probe.covering)
            seek.est_rows = step.probe.matches
            join = IndexNestedLoopJoin(outer, seek)
    join.est_rows, join.est_cost = step.rows, step.cost
    return join


def _build_probe(choice: ProbeChoice, resolve) -> ExistsProbe:
    exists, inner_table = choice.exists, choice.table
    local_predicate = None
    if exists.local_parts and not choice.key_values:
        def resolve_inner(ref: ColumnRef):
            return exists.alias, inner_table.column_position(ref.column)
        local_predicate = compile_predicate(conjunction(exists.local_parts),
                                            resolve_inner)
    return ExistsProbe(
        table_name=inner_table.name,
        alias=exists.alias,
        corr_column=exists.corr_column,
        corr_outer=exists.corr_outer,
        index=choice.index,
        local_predicate=local_predicate,
        resolve_outer=resolve,
        extra_key_values=choice.key_values,
    )


# ----------------------------------------------------------------------
# The optimizer
# ----------------------------------------------------------------------


class Optimizer:
    """Plans queries over a catalog under one set of usable objects.

    Costing and building are separate. Every access path, join order
    and view candidate of a SELECT is *costed* from the numbers in an
    :class:`AccessPaths` table (the database's, so a number is computed
    once per database rather than once per candidate), and what comes
    out is a :class:`SelectChoice` — plain data, remembered in the same
    table, so the next call that can only choose the same is answered
    from it. Operators are built from the choices by
    :func:`build_select`, when the :class:`PlannedQuery` is read.

    An optimizer is a snapshot of the catalog's indexes and views at
    construction plus the hypothetical ones it was given; plan any
    number of queries with it while those stand.
    """

    def __init__(self, catalog: Catalog, stats: StatisticsCatalog,
                 paths: AccessPaths, what_if: bool = False,
                 extra_indexes: list[Index] | None = None,
                 extra_tables: list[Table] | None = None):
        self.catalog = catalog
        self.stats = stats
        self.paths = paths
        self.what_if = what_if
        self.extra_indexes = extra_indexes or []
        self.extra_tables = {t.name: t for t in (extra_tables or [])}
        # Usable indexes by table and usable join views by the pair of
        # tables they join; catalog objects come before hypothetical
        # ones, and the first of equally cheap candidates wins.
        self._indexes: dict[str, list[Index]] = {}
        for index in itertools.chain(catalog.indexes.values(),
                                     self.extra_indexes):
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
        self._leading: dict[tuple[str, frozenset[str]], list[Index]] = {}

    # -- catalog helpers -------------------------------------------------
    def _table(self, name: str) -> Table:
        if name in self.extra_tables:
            return self.extra_tables[name]
        return self.catalog.table(name)

    def _indexes_on(self, table_name: str) -> list[Index]:
        return self._indexes.get(table_name, [])

    # -- public API ------------------------------------------------------
    def plan(self, query: Query) -> PlannedQuery:
        return PlannedQuery(query, tuple(self._plan_select(select)
                                         for select in query.selects))

    # -- per-select planning ----------------------------------------------
    def _plan_select(self, select: Select) -> SelectChoice:
        """The choice for ``select`` under this optimizer's objects:
        remembered, if the database has costed it before under
        everything that can matter to it — the tables it reads as they
        stand, the indexes an access path of its could be entered by
        (``shape.seek_columns``; the costing below skips every other
        index before looking at it), the views that can answer it and
        the indexes that could serve their filters."""
        shape = shape_of(select)
        paths = self.paths
        views = []
        entered = [(self._table(name), columns)
                   for name, columns in shape.seek_columns.items()]
        if self._views:
            for view in self._views.get(
                    frozenset(shape.alias_tables.values()), ()):
                scan = paths.view_scan(select, view)
                if scan is not None:
                    views.append((view, scan))
                    entered.append((view, scan.seek_columns))
        key: list[int] = []
        indexes: list[Index] = []
        for table, columns in entered:
            key.append(paths.stamp(table))
            indexes += self._leading_with(table.name, columns)
        key += map(id, indexes)
        return paths.select(shape, tuple(key), indexes,
                            lambda: self._cost_select(shape, views))

    def _leading_with(self, table_name: str,
                      columns: frozenset[str]) -> list[Index]:
        """The usable indexes on the table that lead with one of
        ``columns``: asked by every SELECT over the table, so kept."""
        known = self._leading.get((table_name, columns))
        if known is None:
            known = self._leading[table_name, columns] = [
                index for index in self._indexes_on(table_name)
                if index.key_columns[0] in columns]
        return known

    def _cost_select(self, shape: SelectShape,
                     views: list[tuple[Table, ViewScan]]) -> SelectChoice:
        """Cost the SELECT over its base tables and over every join
        view that can answer it; choose the cheapest (base first).
        Refuses here whatever building the choice would refuse."""
        if any(e.owner is None for e in shape.top_exists):
            raise PlanError("EXISTS must correlate with exactly one alias")
        alias_tables = {alias: self._table(name)
                        for alias, name in shape.alias_tables.items()}
        cost, rows, first, steps = self._cost_joins(shape, alias_tables)
        cost += rows * CPU_TUPLE_COST
        rewrite = None
        for view, scan in views:
            path = self._access_path(view, "@view", scan.filters,
                                     scan.required)
            view_cost = path.cost + path.rows * CPU_TUPLE_COST
            if view_cost < cost:
                cost, rows, first, rewrite = (view_cost, path.rows, path,
                                              scan.select)
        if rewrite is not None:
            return SelectChoice(cost, rows, tuple(sorted(first.objects_used())),
                                first, rewrite=rewrite)
        resolve = _resolver(alias_tables)
        probes = tuple(self._choose_probe(exists, resolve)
                       for exists in shape.exists)
        for alias, columns in shape.required.items():
            lacking = alias_tables[alias].lacks(columns)
            if lacking:
                resolve(ColumnRef(alias, min(lacking)))    # raises
        objects = first.objects_used().union(
            *(part.objects_used() for part in (*steps, *probes)))
        return SelectChoice(cost, rows, tuple(sorted(objects)), first, steps,
                            shape.multi, probes)

    # ------------------------------------------------------------------
    # EXISTS probes
    # ------------------------------------------------------------------
    def _choose_probe(self, shape: ExistsShape, resolve_outer) -> ProbeChoice:
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

        if not extra_values:
            # The local predicate will be compiled over the inner row.
            for leaf in (leaf for part in shape.local_parts
                         for leaf in leaves_of(part)):
                if isinstance(leaf, Exists):
                    raise PlanError("EXISTS must be planned as a semi-join, "
                                    "not compiled inline")
                for ref in refs_of(leaf):
                    if ref.table != shape.alias:
                        raise PlanError(
                            f"unexpected outer reference {ref} in EXISTS")
                    inner_table.column_position(ref.column)
        resolve_outer(shape.corr_outer)
        return ProbeChoice(shape, inner_table, best_index, extra_values)

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def _access_path(self, table: Table, alias: str, filters: Filters,
                     required: frozenset[str]) -> PathChoice:
        """Cheapest scan/seek for one table."""
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
        return PathChoice(table, alias, filters, cost, scan.rows_out,
                          best_index, best_seek)

    # ------------------------------------------------------------------
    # Join planning
    # ------------------------------------------------------------------
    def _cost_joins(self, shape: SelectShape, alias_tables: dict[str, Table]):
        """Cheapest left-deep join order (the first of equals):
        (cost, rows, first path, join steps)."""
        paths = {alias: self._access_path(table, alias, shape.filters[alias],
                                          shape.required[alias])
                 for alias, table in alias_tables.items()}
        if len(paths) == 1:
            if shape.multi:
                raise PlanError("multi-alias predicate with one table")
            (path,) = paths.values()
            return path.cost, path.rows, path, ()
        orders = (itertools.permutations(paths)
                  if len(paths) <= 4 else [tuple(paths)])
        best = None
        for order in orders:
            costed = self._cost_join_order(order, shape, paths)
            if best is None or costed[0] < best[0]:
                best = costed
        return best

    def _cost_join_order(self, order, shape: SelectShape,
                         paths: dict[str, PathChoice]):
        first = paths[order[0]]
        cost, rows = first.cost, first.rows
        steps = []
        bound = {order[0]}
        for alias in order[1:]:
            edge = tuple((la, lc, ra, rc) for la, lc, ra, rc in shape.joins
                         if (la in bound and ra == alias)
                         or (ra in bound and la == alias))
            step = self._join_step(cost, rows, bound, paths, paths[alias],
                                   edge, shape.required[alias])
            cost, rows = step.cost, step.rows
            steps.append(step)
            bound.add(alias)
        if shape.multi:
            rows = rows * 0.5
            cost = cost + rows * CPU_OPERATOR_COST
        return cost, rows, first, tuple(steps)

    def _join_step(self, outer_cost, outer_rows, bound,
                   paths: dict[str, PathChoice], inner: PathChoice, edge,
                   required: frozenset[str]) -> JoinChoice:
        """Join ``inner`` onto the bound aliases."""
        if not edge:
            # Cartesian product (never produced by the translator, but
            # legal SQL): block nested loop.
            return JoinChoice(
                inner, None, None, None, (),
                outer_cost + inner.cost
                + outer_rows * inner.rows * CPU_OPERATOR_COST,
                outer_rows * inner.rows)

        # Join selectivity from the first edge's key distinctness.
        la, lc, ra, rc = edge[0]
        if la in bound:
            outer_alias, outer_col, inner_col = la, lc, rc
        else:
            outer_alias, outer_col, inner_col = ra, rc, lc
        inner_table = inner.table
        inner_stats = self.stats.column(inner_table.name, inner_col)
        outer_stats = self.stats.column(paths[outer_alias].table.name,
                                        outer_col)
        distinct = max(
            inner_stats.n_distinct if inner_stats else 0,
            outer_stats.n_distinct if outer_stats else 0,
            1)
        scan = self.paths.scan(inner_table, inner.filters)
        join_rows = max(
            outer_rows * scan.rows_in * scan.selectivity / distinct, 0.0)

        # Hash join (build on the inner access path, probe the outer)
        # unless probing an index on the inner join column is cheaper.
        cost = outer_cost + inner.cost \
            + (inner.rows + outer_rows) * HASH_TUPLE_COST
        best_index, best_probe = None, None
        for index in self._indexes_on(inner_table.name):
            if index.key_columns[0] != inner_col:
                continue
            probe = self.paths.probe(index, inner_table, required)
            inlj_cost = outer_cost + outer_rows * probe.per_probe
            if inlj_cost < cost:
                cost, best_index, best_probe = inlj_cost, index, probe
        return JoinChoice(inner, outer_alias, outer_col, inner_col, edge[1:],
                          cost, join_rows, best_index, best_probe)


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
