"""Static semantic analysis of :class:`repro.sqlast.Query` ASTs.

Checks one query against a :class:`repro.engine.Catalog` (plus optional
hypothetical tables):

* every ``FROM`` table exists and aliases are unique (SQL001/SQL002),
* every ``ColumnRef`` resolves to exactly one alias/table/column
  (SQL003/SQL004),
* comparison operands are type-compatible (SQL005) — mindful that the
  XPath translator emits *string* literals against numeric columns
  (``year >= '1995'``) and the engine coerces them, so only genuinely
  impossible combinations (a non-numeric string against a numeric
  column) are errors; comparisons against NULL literals warn (SQL009),
* UNION ALL branches agree in arity and column-type families (SQL006),
* ORDER BY positions are within the output width (SQL007),
* EXISTS subqueries are shaped and correlated the way the optimizer
  requires: one inner table, one outer correlation alias, at least one
  correlation equality (SQL008).
"""

from __future__ import annotations

from ..engine import SQLType, Table
from ..engine.schema import Catalog
from ..sqlast import (And, BoolExpr, ColumnRef, Comparison, ComparisonOp,
                      Exists, IsNull, Literal, Or, Parameter, Query, Select,
                      conjuncts_of)
from .findings import Findings

_NUMERIC = {SQLType.INTEGER, SQLType.DECIMAL, SQLType.BOOLEAN}
_TEXT = {SQLType.VARCHAR, SQLType.DATE}

#: Type family descriptors: "numeric" | "text" | "any" (NULL / numeric
#: strings, compatible with everything).
_FAMILY_OF_TYPE = {**{t: "numeric" for t in _NUMERIC},
                   **{t: "text" for t in _TEXT}}


def _is_numeric_string(value: str) -> bool:
    try:
        float(value)
        return True
    except ValueError:
        return False


def _literal_family(literal: Literal) -> str:
    value = literal.value
    if value is None:
        return "any"
    if isinstance(value, bool):
        return "numeric"
    if isinstance(value, (int, float)):
        return "numeric"
    # Strings that parse as numbers are what the XPath translator emits
    # against numeric columns; the engine coerces them, so they are
    # compatible with both families.
    if _is_numeric_string(value):
        return "any"
    return "text"


class _Scope:
    """Alias -> Table bindings for one SELECT (plus an outer scope)."""

    def __init__(self, alias_tables: dict[str, Table],
                 outer: "_Scope | None" = None):
        self.alias_tables = alias_tables
        self.outer = outer

    def table_of(self, alias: str) -> Table | None:
        if alias in self.alias_tables:
            return self.alias_tables[alias]
        if self.outer is not None:
            return self.outer.table_of(alias)
        return None

    def owners_of(self, column: str) -> list[str]:
        """Local aliases whose table has the column (no outer search —
        unqualified references never escape their own SELECT)."""
        return [alias for alias, table in self.alias_tables.items()
                if table.has_column(column)]


class _QueryAnalyzer:
    def __init__(self, catalog: Catalog,
                 extra_tables: dict[str, Table] | None = None):
        self.catalog = catalog
        self.extra_tables = extra_tables or {}
        self.findings = Findings()

    # ------------------------------------------------------------------
    def _lookup_table(self, name: str) -> Table | None:
        if name in self.catalog.tables:
            return self.catalog.tables[name]
        return self.extra_tables.get(name)

    def run(self, query: Query) -> Findings:
        branch_types: list[list[str]] = []
        for i, select in enumerate(query.selects):
            scope = self._check_from(select, f"select[{i}]")
            self._check_bool(select.where, scope, f"select[{i}].where")
            types: list[str] = []
            for j, item in enumerate(select.items):
                types.append(self._scalar_family(
                    item.expr, scope, f"select[{i}].item[{j}]"))
            branch_types.append(types)
        self._check_union(query, branch_types)
        self._check_order_by(query)
        return self.findings

    # ------------------------------------------------------------------
    def _check_from(self, select: Select, where: str) -> _Scope:
        alias_tables: dict[str, Table] = {}
        for ref in select.from_tables:
            table = self._lookup_table(ref.table)
            if table is None:
                self.findings.add(
                    "SQL001", f"unknown table {ref.table!r}", where)
                continue
            if ref.name in alias_tables:
                self.findings.add(
                    "SQL002", f"alias {ref.name!r} appears more than once "
                              f"in one FROM list", where)
                continue
            alias_tables[ref.name] = table
        return _Scope(alias_tables)

    # ------------------------------------------------------------------
    # Column resolution
    # ------------------------------------------------------------------
    def _resolve(self, ref: ColumnRef, scope: _Scope,
                 where: str) -> SQLType | None:
        """Resolve a column ref to its SQL type; report on failure."""
        if isinstance(ref, Parameter):
            raise ref.unbound()
        if ref.table:
            table = scope.table_of(ref.table)
            if table is None:
                self.findings.add(
                    "SQL003", f"column {ref} references unknown alias "
                              f"{ref.table!r}", where)
                return None
            if not table.has_column(ref.column):
                self.findings.add(
                    "SQL003", f"table {table.name!r} (alias {ref.table!r}) "
                              f"has no column {ref.column!r}", where)
                return None
            return table.column(ref.column).sql_type
        owners = scope.owners_of(ref.column)
        if not owners:
            self.findings.add(
                "SQL003", f"unqualified column {ref.column!r} matches no "
                          f"table in scope", where)
            return None
        if len(owners) > 1:
            self.findings.add(
                "SQL004", f"unqualified column {ref.column!r} is ambiguous "
                          f"(candidate aliases: {sorted(owners)})", where)
            return None
        table = scope.alias_tables[owners[0]]
        return table.column(ref.column).sql_type

    def _scalar_family(self, expr, scope: _Scope, where: str) -> str:
        if isinstance(expr, Literal):
            return _literal_family(expr)
        sql_type = self._resolve(expr, scope, where)
        if sql_type is None:
            return "any"
        return _FAMILY_OF_TYPE[sql_type]

    # ------------------------------------------------------------------
    # Boolean expressions
    # ------------------------------------------------------------------
    def _check_bool(self, expr: BoolExpr | None, scope: _Scope,
                    where: str) -> None:
        if expr is None:
            return
        if isinstance(expr, (And, Or)):
            for item in expr.items:
                self._check_bool(item, scope, where)
        elif isinstance(expr, Comparison):
            self._check_comparison(expr, scope, where)
        elif isinstance(expr, IsNull):
            self._resolve(expr.operand, scope, where)
        elif isinstance(expr, Exists):
            self._check_exists(expr, scope, where)

    def _check_comparison(self, expr: Comparison, scope: _Scope,
                          where: str) -> None:
        left = self._comparand(expr.left, scope, where)
        right = self._comparand(expr.right, scope, where)
        for operand in (expr.left, expr.right):
            if isinstance(operand, Literal) and operand.value is None:
                self.findings.add(
                    "SQL009", f"comparison {expr} against NULL is always "
                              f"false; use IS NULL", where)
                return
        if left is None or right is None:
            return  # resolution already failed; reported as SQL003/004
        if "any" in (left, right):
            return
        if left != right:
            self.findings.add(
                "SQL005", f"comparison {expr} mixes a {left} operand with "
                          f"a {right} operand", where)

    def _comparand(self, operand, scope: _Scope, where: str) -> str | None:
        """Family of a comparison operand; None when unresolvable."""
        if isinstance(operand, Literal):
            return _literal_family(operand)
        sql_type = self._resolve(operand, scope, where)
        if sql_type is None:
            return None
        return _FAMILY_OF_TYPE[sql_type]

    # ------------------------------------------------------------------
    # EXISTS
    # ------------------------------------------------------------------
    def _check_exists(self, exists: Exists, outer: _Scope,
                      where: str) -> None:
        sub = exists.subquery
        if len(sub.from_tables) != 1:
            self.findings.add(
                "SQL008", f"EXISTS subquery must reference exactly one "
                          f"table, found {len(sub.from_tables)}", where)
            return
        inner_scope = _Scope(
            self._check_from(sub, where + ".exists").alias_tables,
            outer=outer)
        inner_aliases = set(inner_scope.alias_tables)
        correlations = 0
        outer_aliases: set[str] = set()
        for conjunct in conjuncts_of(sub.where):
            if isinstance(conjunct, Comparison) and \
                    conjunct.op == ComparisonOp.EQ and \
                    isinstance(conjunct.left, ColumnRef) and \
                    isinstance(conjunct.right, ColumnRef):
                sides = {self._side_of(ref, inner_aliases, outer)
                         for ref in (conjunct.left, conjunct.right)}
                if sides == {"inner", "outer"}:
                    correlations += 1
                    for ref in (conjunct.left, conjunct.right):
                        if self._side_of(ref, inner_aliases,
                                         outer) == "outer":
                            outer_aliases.add(ref.table)
            self._check_bool(conjunct, inner_scope, where + ".exists")
        if correlations == 0:
            self.findings.add(
                "SQL008", "EXISTS subquery has no correlation equality "
                          "with the outer query", where)
        elif len(outer_aliases) > 1:
            self.findings.add(
                "SQL008", f"EXISTS subquery correlates with more than one "
                          f"outer alias: {sorted(outer_aliases)}", where)

    @staticmethod
    def _side_of(ref: ColumnRef, inner_aliases: set[str],
                 outer: _Scope) -> str:
        if ref.table in inner_aliases:
            return "inner"
        if ref.table and outer.table_of(ref.table) is not None:
            return "outer"
        return "inner"  # unqualified refs default to the inner table

    # ------------------------------------------------------------------
    # Query-level checks
    # ------------------------------------------------------------------
    def _check_union(self, query: Query,
                     branch_types: list[list[str]]) -> None:
        widths = {len(types) for types in branch_types}
        if len(widths) > 1:
            self.findings.add(
                "SQL006", f"UNION ALL branches have diverging widths "
                          f"{sorted(widths)}", "query")
            return
        if len(branch_types) < 2:
            return
        for position in range(len(branch_types[0])):
            families = {types[position] for types in branch_types}
            families.discard("any")
            if len(families) > 1:
                self.findings.add(
                    "SQL006", f"UNION ALL output position {position + 1} "
                              f"mixes {sorted(families)} branches",
                    f"item[{position}]")

    def _check_order_by(self, query: Query) -> None:
        width = query.width
        for k, position in enumerate(query.order_by):
            if not 1 <= position <= width:
                self.findings.add(
                    "SQL007", f"ORDER BY position {position} is outside "
                              f"1..{width}", f"order_by[{k}]")


def analyze_query(query: Query, catalog: Catalog,
                  extra_tables: dict[str, Table] | None = None) -> Findings:
    """Run the SQL semantic analyzer; returns the findings."""
    return _QueryAnalyzer(catalog, extra_tables).run(query)
