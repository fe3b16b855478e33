"""Convert a DTD to a schema tree.

The paper notes: "Our work also applies to XML data with DTD by first
transforming DTD to XSD." This module implements that front-end for the
classic DTD content-model syntax::

    <!ELEMENT dblp (inproceedings | book)*>
    <!ELEMENT inproceedings (title, booktitle, year, author*, pages, ee?)>
    <!ELEMENT title (#PCDATA)>

``#PCDATA`` leaves become string-typed simple elements. The required
table annotations (root, elements under ``*``/``+``) are assigned
automatically from the element names.
"""

from __future__ import annotations

import re

from ..errors import XSDError
from .nodes import UNBOUNDED, BaseType, NodeKind, SchemaNode
from .tree import SchemaTree, TreeBuilder

_ELEMENT_RE = re.compile(r"<!ELEMENT\s+([\w.:-]+)\s+(.*?)>", re.DOTALL)


class _ModelParser:
    """Recursive-descent parser for DTD content models."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        model = self._parse_particle()
        self._skip_ws()
        if self.pos != len(self.text):
            raise XSDError(f"trailing content in DTD model: {self.text[self.pos:]!r}")
        return model

    def _parse_particle(self):
        """particle := atom suffix?  where atom := name | '(' group ')'"""
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            atom = self._parse_group()
        else:
            atom = self._parse_name()
        return self._apply_suffix(atom)

    def _parse_group(self):
        """group := particle ((',' particle)* | ('|' particle)*) ')'"""
        items = [self._parse_particle()]
        separator = None
        while True:
            ch = self._peek()
            if ch == ")":
                self.pos += 1
                break
            if ch not in (",", "|"):
                raise XSDError(f"expected ',' '|' or ')' in DTD model at {self.pos}")
            if separator is None:
                separator = ch
            elif ch != separator:
                raise XSDError("mixed ',' and '|' in one DTD group; add parentheses")
            self.pos += 1
            items.append(self._parse_particle())
        if separator == "|":
            return ("choice", items)
        if len(items) == 1:
            return items[0]
        return ("seq", items)

    def _parse_name(self):
        self._skip_ws()
        match = re.match(r"#?[\w.:-]+", self.text[self.pos:])
        if not match:
            raise XSDError(f"expected a name in DTD model at {self.pos}")
        self.pos += len(match.group(0))
        name = match.group(0)
        if name == "#PCDATA":
            return ("pcdata",)
        return ("name", name)

    def _apply_suffix(self, atom):
        ch = self.text[self.pos] if self.pos < len(self.text) else ""
        if ch == "*":
            self.pos += 1
            return ("rep", 0, atom)
        if ch == "+":
            self.pos += 1
            return ("rep", 1, atom)
        if ch == "?":
            self.pos += 1
            return ("opt", atom)
        return atom


def parse_dtd(text: str, root: str) -> SchemaTree:
    """Parse DTD text and build the schema tree rooted at ``root``."""
    models: dict[str, object] = {}
    for match in _ELEMENT_RE.finditer(text):
        element_name, model_text = match.group(1), match.group(2).strip()
        if element_name in models:
            raise XSDError(f"duplicate <!ELEMENT {element_name}>")
        if model_text == "EMPTY":
            models[element_name] = ("empty",)
        elif model_text == "ANY":
            raise XSDError("ANY content models are not supported")
        else:
            models[element_name] = _ModelParser(model_text).parse()
    if root not in models:
        raise XSDError(f"root element {root!r} not declared in DTD")

    builder = TreeBuilder("dtd-schema")
    in_progress: list[str] = []

    def build_element(element_name: str, parent: SchemaNode | None,
                      force_annotation: bool) -> SchemaNode:
        if element_name in in_progress:
            cycle = " -> ".join(in_progress + [element_name])
            raise XSDError(
                f"recursive element type {cycle}; recursive schemas are "
                f"out of scope (paper Section 2)")
        in_progress.append(element_name)
        annotation = element_name if (force_annotation or parent is None) else None
        tag = builder.tag(element_name, parent, annotation=annotation)
        model = models.get(element_name)
        if model is None:
            raise XSDError(f"element {element_name!r} referenced but not declared")
        if model == ("pcdata",) or model == ("empty",):
            builder.simple(tag, BaseType.STRING)
        else:
            build_particle(model, tag, under_rep=False)
        in_progress.pop()
        return tag

    def build_particle(model, parent: SchemaNode, under_rep: bool) -> None:
        kind = model[0]
        if kind == "name":
            build_element(model[1], parent, force_annotation=under_rep)
        elif kind == "pcdata":
            builder.simple(parent, BaseType.STRING)
        elif kind == "seq":
            target = parent
            if parent.kind in (NodeKind.REPETITION, NodeKind.OPTION):
                target = builder.seq(parent)
            for item in model[1]:
                build_particle(item, target, under_rep)
        elif kind == "choice":
            choice = builder.choice(parent)
            for item in model[1]:
                build_particle(item, choice, under_rep)
        elif kind == "rep":
            rep = builder.rep(parent, min_occurs=model[1], max_occurs=UNBOUNDED)
            build_particle(model[2], rep, under_rep=True)
        elif kind == "opt":
            opt = builder.opt(parent)
            build_particle(model[1], opt, under_rep)
        else:  # pragma: no cover - parser produces only the kinds above
            raise XSDError(f"unknown DTD model node {kind!r}")

    root_node = build_element(root, None, force_annotation=True)
    return builder.build(root_node)
