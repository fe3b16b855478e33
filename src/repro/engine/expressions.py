"""Compile SQL expressions into Python callables for the executor.

A compiled expression takes an *environment* — a dict mapping table
alias to the current row tuple — and returns a value (scalars) or a
truth value (boolean expressions). SQL three-valued logic is collapsed
to two values the way filters need it: any comparison involving NULL is
false.

EXISTS subqueries are not compiled here; the optimizer turns them into
semi-join probes and hands :func:`compile_predicate` the callback that
builds them.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ExecutionError, PlanError
from ..sqlast import (And, BoolExpr, ColumnRef, Comparison, ComparisonOp,
                      Exists, IsNull, Literal, Or, Scalar)
from .btree import encode_key

Environment = dict[str, tuple]
ColumnResolver = Callable[[ColumnRef], tuple[str, int]]
Predicate = Callable[[Environment], bool]


def compile_scalar(expr: Scalar, resolve: ColumnResolver) -> Callable[[Environment], object]:
    """Compile a scalar expression to ``env -> value``."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda env: value
    if isinstance(expr, ColumnRef):
        alias, position = resolve(expr)

        def fetch(env: Environment):
            row = env.get(alias)
            if row is None:
                raise ExecutionError(
                    f"no row bound for alias {alias!r} while evaluating "
                    f"{expr}")
            return row[position]

        return fetch
    raise PlanError(f"cannot compile scalar expression {expr!r}")


def _comparator(op: ComparisonOp) -> Callable[[object, object], bool]:
    def compare(a, b) -> bool:
        if a is None or b is None:
            return False
        # Cross-type comparisons (e.g. INTEGER column vs numeric string
        # literal from XPath) coerce to float when possible. When they
        # cannot (a number against non-numeric text), fall back to the
        # engine's total order — numbers before text — which is also
        # SQLite's storage-class order and what the index entries sort
        # by; a textual fallback here used to make seq-scan
        # filters disagree with both.
        if type(a) is not type(b) and not (
                isinstance(a, (int, float)) and isinstance(b, (int, float))):
            try:
                a, b = float(a), float(b)
            except (TypeError, ValueError):
                a, b = encode_key((a,)), encode_key((b,))
        if op == ComparisonOp.EQ:
            return a == b
        if op == ComparisonOp.NE:
            return a != b
        if op == ComparisonOp.LT:
            return a < b
        if op == ComparisonOp.LE:
            return a <= b
        if op == ComparisonOp.GT:
            return a > b
        return a >= b

    return compare


def compile_predicate(expr: BoolExpr, resolve: ColumnResolver,
                      exists: Callable[[Exists], Predicate] | None = None
                      ) -> Predicate:
    """Compile a boolean expression to ``env -> bool``; an EXISTS node
    at any depth compiles to ``exists(node)``."""
    if isinstance(expr, Comparison):
        left = compile_scalar(expr.left, resolve)
        right = compile_scalar(expr.right, resolve)
        compare = _comparator(expr.op)
        return lambda env: compare(left(env), right(env))
    if isinstance(expr, IsNull):
        operand = compile_scalar(expr.operand, resolve)
        if expr.negated:
            return lambda env: operand(env) is not None
        return lambda env: operand(env) is None
    if isinstance(expr, And):
        parts = [compile_predicate(item, resolve, exists)
                 for item in expr.items]
        return lambda env: all(p(env) for p in parts)
    if isinstance(expr, Or):
        parts = [compile_predicate(item, resolve, exists)
                 for item in expr.items]
        return lambda env: any(p(env) for p in parts)
    if isinstance(expr, Exists):
        if exists is not None:
            return exists(expr)
        raise PlanError(
            "EXISTS must be planned as a semi-join, not compiled inline")
    raise PlanError(f"cannot compile boolean expression {expr!r}")

