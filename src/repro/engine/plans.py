"""Physical plan operators.

Operators produce *environments* (dict: alias -> current row tuple), so
compiled expressions can reference any table in scope; a ``Project`` at
the top of each SELECT branch flattens environments into output tuples.
``UnionAll`` and ``Sort`` then work on tuples.

Each operator charges the runtime's :class:`~repro.engine.cost.CostCounter`
for the logical I/O and CPU work it performs, using the same constants
the optimizer estimates with. ``est_rows``/``est_cost`` are filled in by
the optimizer for EXPLAIN output and advisor costing.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from ..errors import ExecutionError
from .btree import encode_key
from .cost import CostCounter
from .expressions import Environment
from .index import Index
from .schema import Catalog, Table


class Runtime:
    """Execution context: catalog access plus cost accounting."""

    def __init__(self, catalog: Catalog, counter: CostCounter):
        self.catalog = catalog
        self.counter = counter

    def table(self, name: str) -> Table:
        table = self.catalog.table(name)
        if table.rows is None:
            raise ExecutionError(
                f"table {name!r} is stats-only; cannot execute against it")
        return table


class PlanNode:
    """Base class for all operators."""

    est_rows: float = 0.0
    est_cost: float = 0.0

    def execute(self, runtime: Runtime) -> Iterator[Environment]:
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__

    def children(self) -> list["PlanNode"]:
        return []

    def explain(self, depth: int = 0) -> str:
        lines = [
            "  " * depth
            + f"{self.label()}  (rows={self.est_rows:.0f} cost={self.est_cost:.1f})"
        ]
        for child in self.children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def objects_used(self) -> set[str]:
        """Names of relations/indexes/views this plan touches.

        This is the paper's ``I(Q, M)`` — the object set used by the
        query plan — which the cost-derivation optimization compares
        across mappings (Section 4.8).
        """
        out: set[str] = set()
        for child in self.children():
            out |= child.objects_used()
        return out


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------


class SeqScan(PlanNode):
    """Full scan of a base table or materialized view."""

    def __init__(self, table_name: str, alias: str,
                 predicate: Callable[[Environment], bool] | None = None):
        self.table_name = table_name
        self.alias = alias
        self.predicate = predicate

    def label(self) -> str:
        return f"SeqScan({self.table_name} AS {self.alias})"

    def objects_used(self) -> set[str]:
        return {self.table_name}

    def execute(self, runtime: Runtime) -> Iterator[Environment]:
        table = runtime.table(self.table_name)
        runtime.counter.charge_seq_pages(table.page_count)
        predicate = self.predicate
        for row in table.rows or ():
            runtime.counter.charge_tuples(1)
            env = {self.alias: row}
            if predicate is None or predicate(env):
                yield env


class IndexSeek(PlanNode):
    """Index lookup: equality prefix plus optional range on next column.

    ``eq_exprs`` produce the leading key values from the environment (so
    the same operator serves constant seeks and index-nested-loop inner
    sides). ``covering`` controls whether base-table row fetches are
    charged.
    """

    def __init__(self, index: Index, table_name: str, alias: str,
                 eq_exprs: list[Callable[[Environment], object]],
                 range_bounds: tuple | None = None,
                 residual: Callable[[Environment], bool] | None = None,
                 covering: bool = False):
        self.index = index
        self.table_name = table_name
        self.alias = alias
        self.eq_exprs = eq_exprs
        # range_bounds: (lo, lo_inclusive, hi, hi_inclusive) raw scalars or None.
        self.range_bounds = range_bounds
        self.residual = residual
        self.covering = covering

    def label(self) -> str:
        kind = "covering " if self.covering else ""
        return (f"IndexSeek({kind}{self.index.name} ON "
                f"{self.table_name} AS {self.alias})")

    def objects_used(self) -> set[str]:
        out = {self.index.name}
        if not self.covering:
            out.add(self.table_name)
        return out

    def execute(self, runtime: Runtime,
                outer_env: Environment | None = None) -> Iterator[Environment]:
        table = runtime.table(self.table_name)
        tree = self.index.tree
        env = outer_env or {}
        eq_values = tuple(expr(env) for expr in self.eq_exprs)
        if any(v is None for v in eq_values):
            return  # NULL never matches an equality seek
        if self.range_bounds is not None:
            lo, lo_inc, hi, hi_inc = self.range_bounds
            lo_key = eq_values + ((lo,) if lo is not None else ())
            hi_key = eq_values + ((hi,) if hi is not None else ())
            if lo is None:
                lo_key = eq_values if eq_values else None
                lo_inc = True
            if hi is None:
                hi_key = eq_values if eq_values else None
                hi_inc = True
            matches = tree.range_scan(lo_key, hi_key, lo_inc, hi_inc)
        elif eq_values:
            matches = tree.range_scan(eq_values, eq_values)
        else:
            matches = tree.scan_all()
        # Charge the tree descent plus leaf pages proportional to matches.
        runtime.counter.charge_random_pages(self.index.height(table))
        entries_per_page = self.index.entries_per_page(table)
        matched = 0
        for _, position in matches:
            matched += 1
            runtime.counter.charge_tuples(1)
            if not self.covering:
                runtime.counter.charge_random_pages(1)
            row = table.rows[position]
            out_env = dict(env)
            out_env[self.alias] = row
            if self.residual is None or self.residual(out_env):
                yield out_env
        runtime.counter.charge_seq_pages(matched / entries_per_page)


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------


class NestedLoopJoin(PlanNode):
    """Block nested-loop join: the inner side is materialized once."""

    def __init__(self, outer: PlanNode, inner: PlanNode,
                 predicate: Callable[[Environment], bool] | None = None):
        self.outer = outer
        self.inner = inner
        self.predicate = predicate

    def label(self) -> str:
        return "NestedLoopJoin"

    def children(self) -> list[PlanNode]:
        return [self.outer, self.inner]

    def execute(self, runtime: Runtime) -> Iterator[Environment]:
        inner_rows = list(self.inner.execute(runtime))
        predicate = self.predicate
        for outer_env in self.outer.execute(runtime):
            for inner_env in inner_rows:
                runtime.counter.charge_operations(1)
                merged = dict(outer_env)
                merged.update(inner_env)
                if predicate is None or predicate(merged):
                    yield merged


class IndexNestedLoopJoin(PlanNode):
    """For each outer environment, probe the inner index seek."""

    def __init__(self, outer: PlanNode, inner_seek: IndexSeek):
        self.outer = outer
        self.inner_seek = inner_seek

    def label(self) -> str:
        return f"IndexNestedLoopJoin(inner={self.inner_seek.index.name})"

    def children(self) -> list[PlanNode]:
        return [self.outer, self.inner_seek]

    def execute(self, runtime: Runtime) -> Iterator[Environment]:
        for outer_env in self.outer.execute(runtime):
            yield from self.inner_seek.execute(runtime, outer_env)


class HashJoin(PlanNode):
    """Classic hash join on equi-join keys."""

    def __init__(self, build: PlanNode, probe: PlanNode,
                 build_keys: list[Callable[[Environment], object]],
                 probe_keys: list[Callable[[Environment], object]],
                 residual: Callable[[Environment], bool] | None = None):
        self.build = build
        self.probe = probe
        self.build_keys = build_keys
        self.probe_keys = probe_keys
        self.residual = residual

    def label(self) -> str:
        return "HashJoin"

    def children(self) -> list[PlanNode]:
        return [self.build, self.probe]

    def execute(self, runtime: Runtime) -> Iterator[Environment]:
        table: dict[tuple, list[Environment]] = {}
        for env in self.build.execute(runtime):
            runtime.counter.charge_hash(1)
            key = tuple(k(env) for k in self.build_keys)
            if any(v is None for v in key):
                continue
            table.setdefault(key, []).append(env)
        residual = self.residual
        for env in self.probe.execute(runtime):
            runtime.counter.charge_hash(1)
            key = tuple(k(env) for k in self.probe_keys)
            if any(v is None for v in key):
                continue
            for build_env in table.get(key, ()):
                merged = dict(build_env)
                merged.update(env)
                if residual is None or residual(merged):
                    yield merged


# ----------------------------------------------------------------------
# Shaping
# ----------------------------------------------------------------------


class Project(PlanNode):
    """Turn environments into flat output tuples."""

    def __init__(self, child: PlanNode,
                 exprs: list[Callable[[Environment], object]]):
        self.child = child
        self.exprs = exprs

    def label(self) -> str:
        return f"Project({len(self.exprs)} cols)"

    def children(self) -> list[PlanNode]:
        return [self.child]

    def execute_tuples(self, runtime: Runtime) -> Iterator[tuple]:
        exprs = self.exprs
        for env in self.child.execute(runtime):
            runtime.counter.charge_tuples(1)
            yield tuple(expr(env) for expr in exprs)

    def execute(self, runtime: Runtime) -> Iterator[Environment]:
        raise ExecutionError("Project produces tuples; use execute_tuples")

    def objects_used(self) -> set[str]:
        return self.child.objects_used()


class UnionAllPlan(PlanNode):
    """Concatenate the tuple streams of several Project branches."""

    def __init__(self, branches: list[Project]):
        self.branches = branches

    def label(self) -> str:
        return f"UnionAll({len(self.branches)} branches)"

    def children(self) -> list[PlanNode]:
        return list(self.branches)

    def execute_tuples(self, runtime: Runtime) -> Iterator[tuple]:
        for branch in self.branches:
            yield from branch.execute_tuples(runtime)

    def execute(self, runtime: Runtime) -> Iterator[Environment]:
        raise ExecutionError("UnionAll produces tuples; use execute_tuples")


class SortPlan(PlanNode):
    """Sort tuples by 1-based output positions (NULLs first)."""

    def __init__(self, child: Project | UnionAllPlan, positions: tuple[int, ...]):
        self.child = child
        self.positions = positions

    def label(self) -> str:
        return f"Sort(by {list(self.positions)})"

    def children(self) -> list[PlanNode]:
        return [self.child]

    def execute_tuples(self, runtime: Runtime) -> Iterator[tuple]:
        rows = list(self.child.execute_tuples(runtime))
        if len(rows) > 1:
            runtime.counter.charge_sort(len(rows) * math.log2(len(rows)))
        rows.sort(key=lambda row: encode_key(
            tuple(row[p - 1] for p in self.positions)))
        yield from rows

    def execute(self, runtime: Runtime) -> Iterator[Environment]:
        raise ExecutionError("Sort produces tuples; use execute_tuples")

    def objects_used(self) -> set[str]:
        return self.child.objects_used()
