"""SQL abstract syntax for the subset produced by XPath translation.

The sorted outer-union translation (paper Section 1.1) emits statements
of the form::

    SELECT ...  FROM t1 A, t2 B  WHERE <conjunction>
    UNION ALL
    SELECT ...
    ORDER BY <column positions>

so the AST covers: SELECT with column/NULL/literal items, implicit-join
FROM lists, WHERE trees of AND/OR/comparison/IS NULL/EXISTS, UNION ALL,
and ORDER BY on output positions. The engine consumes this AST directly;
the renderer and parser exist for round-tripping, debugging, and the
public ``Database.execute(sql_text)`` entry point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from ..errors import PlanError

# ----------------------------------------------------------------------
# Scalar expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    """``alias.column`` (alias may be empty when unambiguous)."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal:
    """A string or numeric constant; ``None`` renders as NULL."""

    value: Union[str, int, float, None]

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        # bool is a subclass of int: render as 1/0, never "True"/"False"
        # (which would tokenize as identifiers). Literal(True) == Literal(1)
        # under dataclass comparison, so the round-trip still holds.
        if isinstance(self.value, bool):
            return "1" if self.value else "0"
        if isinstance(self.value, float):
            if not math.isfinite(self.value):
                raise ValueError(
                    f"cannot render non-finite SQL literal {self.value!r}")
            # repr keeps every digit, so parse_sql(str(q)) == q even for
            # values that str() would have rendered in scientific
            # notation the tokenizer used to reject.
            return repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class Parameter:
    """``?index`` (1-based): a constant supplied when the statement
    runs, so queries differing only in that constant share one plan
    and one SQL text. A DBMS backend binds it; everything that reads
    constants (engine, analyzer) wants :func:`repro.sqlast.bind`'s
    literal form and refuses this one with :meth:`unbound`."""

    index: int

    def __str__(self) -> str:
        return f"?{self.index}"

    def unbound(self) -> PlanError:
        return PlanError(f"unbound parameter {self}: substitute its value "
                         f"with sqlast.bind(query, values) first")


Scalar = Union[ColumnRef, Literal, Parameter]


class ComparisonOp(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


# ----------------------------------------------------------------------
# Boolean expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    left: Scalar
    op: ComparisonOp
    right: Scalar

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True)
class IsNull:
    operand: ColumnRef
    negated: bool = False

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand} {suffix}"


@dataclass(frozen=True)
class And:
    items: tuple["BoolExpr", ...]

    def __str__(self) -> str:
        return " AND ".join(
            f"({item})" if isinstance(item, Or) else str(item)
            for item in self.items)


@dataclass(frozen=True)
class Or:
    items: tuple["BoolExpr", ...]

    def __str__(self) -> str:
        return " OR ".join(str(item) for item in self.items)


@dataclass(frozen=True)
class Exists:
    """A correlated EXISTS subquery (used for overflow-table probes)."""

    subquery: "Select"

    def __str__(self) -> str:
        return f"EXISTS ({self.subquery})"


BoolExpr = Union[Comparison, IsNull, And, Or, Exists]


def conjunction(items: Iterable[BoolExpr]) -> BoolExpr | None:
    """Combine conjuncts, flattening nested ANDs; None when empty."""
    flat: list[BoolExpr] = []
    for item in items:
        if isinstance(item, And):
            flat.extend(item.items)
        else:
            flat.append(item)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def conjuncts_of(expr: BoolExpr | None) -> list[BoolExpr]:
    """The top-level conjuncts of a WHERE tree, nested ANDs flattened
    (empty for None). The one AND-flattener: planner, advisor and
    analyzer all split a WHERE clause here."""
    if expr is None:
        return []
    if isinstance(expr, And):
        return [part for item in expr.items for part in conjuncts_of(item)]
    return [expr]


def leaves_of(expr: BoolExpr | None) -> Iterator[BoolExpr]:
    """Comparison, IS NULL and EXISTS nodes in source order at any
    AND/OR depth; subqueries are not entered."""
    if isinstance(expr, (And, Or)):
        for item in expr.items:
            yield from leaves_of(item)
    elif expr is not None:
        yield expr


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    """``table AS alias`` in a FROM list (implicit-join style)."""

    table: str
    alias: str

    def __str__(self) -> str:
        if self.alias and self.alias != self.table:
            return f"{self.table} {self.alias}"
        return self.table

    @property
    def name(self) -> str:
        return self.alias or self.table


@dataclass(frozen=True)
class SelectItem:
    expr: Scalar
    alias: str = ""

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)


@dataclass(frozen=True)
class Select:
    """One SELECT block: items, FROM list, optional WHERE tree."""

    items: tuple[SelectItem, ...]
    from_tables: tuple[TableRef, ...]
    where: BoolExpr | None = None

    def __str__(self) -> str:
        parts = ["SELECT " + ", ".join(str(i) for i in self.items)]
        parts.append("FROM " + ", ".join(str(t) for t in self.from_tables))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        return " ".join(parts)

    @property
    def width(self) -> int:
        return len(self.items)

    def __getstate__(self) -> dict:
        """Fields only: the ``SelectShape`` that :func:`shape_of` keeps
        on the node is derived data and stays out of pickles and copies
        (it is not a field, so ``==``/``hash``/``repr`` never see it)."""
        state = dict(self.__dict__)
        state.pop("_shape", None)
        return state


@dataclass(frozen=True)
class Query:
    """A full statement: one or more SELECTs under UNION ALL + ORDER BY.

    ``order_by`` holds 1-based output column positions (ascending), the
    form emitted by the sorted outer-union translation.
    """

    selects: tuple[Select, ...]
    order_by: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        widths = {s.width for s in self.selects}
        if len(widths) > 1:
            raise ValueError("UNION ALL branches must have equal width")

    def __str__(self) -> str:
        body = " UNION ALL ".join(str(s) for s in self.selects)
        if self.order_by:
            body += " ORDER BY " + ", ".join(str(i) for i in self.order_by)
        return body

    @property
    def width(self) -> int:
        return self.selects[0].width

    @property
    def referenced_tables(self) -> frozenset[str]:
        """Base-table names referenced anywhere (the paper's RS(Q))."""
        names: set[str] = set()
        pending = list(self.selects)
        while pending:
            select = pending.pop()
            names.update(t.table for t in select.from_tables)
            pending += [leaf.subquery for leaf in leaves_of(select.where)
                        if isinstance(leaf, Exists)]
        return frozenset(names)


def single_select(items, from_tables, where=None) -> Query:
    """Convenience constructor for one-block queries."""
    return Query(selects=(Select(tuple(items), tuple(from_tables), where),))
