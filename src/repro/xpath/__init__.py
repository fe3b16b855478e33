"""XPath subset: AST, lexer, parser, and reference evaluator."""

from .ast import (Axis, CompareOp, Predicate, Step, XPathQuery,
                  quote_literal)
from .evaluate import evaluate, evaluate_values
from .parser import Shape, lex, parse_tokens, parse_xpath

__all__ = [
    "Axis",
    "CompareOp",
    "Predicate",
    "Step",
    "XPathQuery",
    "quote_literal",
    "Shape",
    "lex",
    "parse_tokens",
    "parse_xpath",
    "evaluate",
    "evaluate_values",
]
