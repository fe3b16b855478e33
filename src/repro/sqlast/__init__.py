"""SQL AST, renderer, and parser for the translated-query subset."""

from .ast import (And, BoolExpr, ColumnRef, Comparison, ComparisonOp, Exists,
                  IsNull, Literal, Or, Parameter, Query, Scalar, Select,
                  SelectItem, TableRef, conjunction, conjuncts_of, leaves_of,
                  single_select)
from .parser import parse_sql
from .render import render, render_select
from .shape import (ExistsShape, SelectShape, bind, qualify, refs_of,
                    shape_of)

__all__ = [
    "And",
    "BoolExpr",
    "ColumnRef",
    "Comparison",
    "ComparisonOp",
    "Exists",
    "IsNull",
    "Literal",
    "Or",
    "Parameter",
    "Query",
    "Scalar",
    "Select",
    "SelectItem",
    "TableRef",
    "conjunction",
    "conjuncts_of",
    "leaves_of",
    "single_select",
    "parse_sql",
    "render",
    "render_select",
    "ExistsShape",
    "SelectShape",
    "bind",
    "qualify",
    "refs_of",
    "shape_of",
]
