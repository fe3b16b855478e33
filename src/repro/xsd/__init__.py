"""XSD schema trees: model, parsers (XSD subset + DTD), and validation."""

from .dtd import parse_dtd
from .nodes import UNBOUNDED, BaseType, NodeKind, SchemaNode
from .parser import parse_xsd, parse_xsd_file
from .tree import Atom, AttributePlan, ElementPlan, SchemaTree, TreeBuilder
from .validate import Validator, validate

__all__ = [
    "Atom",
    "AttributePlan",
    "BaseType",
    "ElementPlan",
    "NodeKind",
    "SchemaNode",
    "SchemaTree",
    "TreeBuilder",
    "UNBOUNDED",
    "parse_xsd",
    "parse_xsd_file",
    "parse_dtd",
    "Validator",
    "validate",
]
