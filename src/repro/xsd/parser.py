"""Parse (a practical subset of) XML Schema documents into schema trees.

Supported constructs:

* ``xs:element`` with inline ``xs:complexType``, a named complex type
  reference (``type="SomeType"`` — this is how *shared types* enter the
  tree), or a base simple type (``type="xs:string"`` etc.),
* ``xs:sequence`` and ``xs:choice`` compositors,
* ``minOccurs`` / ``maxOccurs`` (including ``unbounded``),
* a vendor annotation attribute ``sdb:table="name"`` assigning the
  initial table annotation ``A`` of the paper's ``T(V, E, A)``.

Namespace prefixes are stripped; only local names matter here.
"""

from __future__ import annotations

from ..errors import XSDError
from ..xmlkit import Document, Element, parse as parse_xml
from .nodes import UNBOUNDED, BaseType, NodeKind, SchemaNode
from .tree import SchemaTree, TreeBuilder

_BASE_TYPES = {
    "string": BaseType.STRING,
    "integer": BaseType.INTEGER,
    "int": BaseType.INTEGER,
    "long": BaseType.INTEGER,
    "decimal": BaseType.DECIMAL,
    "double": BaseType.DECIMAL,
    "float": BaseType.DECIMAL,
    "date": BaseType.DATE,
    "gYear": BaseType.INTEGER,
    "boolean": BaseType.BOOLEAN,
}


def _local(name: str) -> str:
    """Strip any namespace prefix."""
    return name.rsplit(":", 1)[-1]


def _occurs(el: Element) -> tuple[int, int]:
    min_occurs = int(el.attribute_map.get("minOccurs", "1"))
    raw_max = el.attribute_map.get("maxOccurs", "1")
    max_occurs = UNBOUNDED if raw_max == "unbounded" else int(raw_max)
    if max_occurs != UNBOUNDED and max_occurs < min_occurs:
        raise XSDError(f"maxOccurs < minOccurs on <{el.tag}>")
    return min_occurs, max_occurs


def _table_annotation(el: Element) -> str | None:
    for name, value in el.attribute_map.items():
        if _local(name) == "table":
            return value
    return None


class _XSDReader:
    """Single-use reader turning one ``xs:schema`` document into a tree."""

    def __init__(self, schema_el: Element, name: str):
        self.schema_el = schema_el
        self.builder = TreeBuilder(name)
        self.named_types: dict[str, Element] = {}
        self._expanding: list[str] = []
        self._collect_named_types()

    def _collect_named_types(self) -> None:
        for child in self.schema_el.children:
            if _local(child.tag) == "complexType":
                type_name = child.attribute_map.get("name")
                if not type_name:
                    raise XSDError("top-level complexType requires a name")
                if type_name in self.named_types:
                    raise XSDError(f"duplicate complexType {type_name!r}")
                self.named_types[type_name] = child

    def read(self) -> SchemaTree:
        roots = [c for c in self.schema_el.children if _local(c.tag) == "element"]
        if len(roots) != 1:
            raise XSDError("schema must declare exactly one top-level element")
        root_node = self._read_element(roots[0], parent=None)
        return self.builder.build(root_node)

    # ------------------------------------------------------------------
    def _read_element(self, el: Element, parent: SchemaNode | None) -> SchemaNode:
        name = el.attribute_map.get("name")
        if not name:
            raise XSDError("xs:element requires a name")
        min_occurs, max_occurs = _occurs(el)
        attach = parent
        if attach is not None and (max_occurs == UNBOUNDED or max_occurs > 1):
            attach = self.builder.rep(attach, min_occurs, max_occurs)
        elif attach is not None and min_occurs == 0:
            attach = self.builder.opt(attach)
        tag = self.builder.tag(name, attach, annotation=_table_annotation(el))
        self._read_element_content(el, tag)
        return tag

    def _read_element_content(self, el: Element, tag: SchemaNode) -> None:
        type_ref = el.attribute_map.get("type")
        inline = [c for c in el.children if _local(c.tag) == "complexType"]
        if type_ref and inline:
            raise XSDError(f"element {tag.name!r} has both type= and inline complexType")
        if type_ref:
            local = _local(type_ref)
            if local in _BASE_TYPES:
                self.builder.simple(tag, _BASE_TYPES[local])
            elif local in self.named_types:
                if local in self._expanding:
                    cycle = " -> ".join(self._expanding + [local])
                    raise XSDError(
                        f"recursive complexType {cycle}; recursive schemas "
                        f"are out of scope (paper Section 2)")
                self._expanding.append(local)
                self._read_complex_type(self.named_types[local], tag)
                self._expanding.pop()
            else:
                raise XSDError(f"unknown type {type_ref!r} on element {tag.name!r}")
        elif inline:
            self._read_complex_type(inline[0], tag)
        else:
            # No content model: treat as a string leaf.
            self.builder.simple(tag, BaseType.STRING)

    def _read_complex_type(self, ct: Element, tag: SchemaNode) -> None:
        compositors = [c for c in ct.children
                       if _local(c.tag) in ("sequence", "choice")]
        attributes = [c for c in ct.children
                      if _local(c.tag) == "attribute"]
        if not compositors and not attributes:
            raise XSDError(
                f"complexType for element {tag.name!r} needs a sequence, "
                f"choice, or attributes")
        for compositor in compositors:
            self._read_compositor(compositor, tag)
        for attribute in attributes:
            self._read_attribute(attribute, tag)
        if not compositors:
            # Attribute-only content: the element value is a string leaf.
            self.builder.simple(tag, BaseType.STRING)

    def _read_attribute(self, el: Element, tag: SchemaNode) -> None:
        name = el.attribute_map.get("name")
        if not name:
            raise XSDError(f"xs:attribute on {tag.name!r} requires a name")
        type_ref = _local(el.attribute_map.get("type", "xs:string"))
        base = _BASE_TYPES.get(type_ref)
        if base is None:
            raise XSDError(
                f"unsupported attribute type {type_ref!r} on {tag.name!r}")
        required = el.attribute_map.get("use") == "required"
        self.builder.attribute(name, tag, base, required=required)

    def _read_compositor(self, el: Element, parent: SchemaNode) -> None:
        local = _local(el.tag)
        min_occurs, max_occurs = _occurs(el)
        attach = parent
        if max_occurs == UNBOUNDED or max_occurs > 1:
            attach = self.builder.rep(attach, min_occurs, max_occurs)
        elif min_occurs == 0:
            attach = self.builder.opt(attach)
        if local == "sequence":
            # Sequences are flattened: children attach to the parent
            # directly unless the sequence itself repeats or is optional.
            target = attach
            if attach is not parent:
                target = self.builder.seq(attach)
            for child in el.children:
                self._read_particle(child, target)
        elif local == "choice":
            choice = self.builder.choice(attach)
            for child in el.children:
                self._read_particle(child, choice)
            if len(choice.child_ids) < 2:
                raise XSDError("xs:choice needs at least two alternatives")
        else:  # pragma: no cover - guarded by caller
            raise XSDError(f"unsupported compositor <{el.tag}>")

    def _read_particle(self, el: Element, parent: SchemaNode) -> None:
        local = _local(el.tag)
        if local == "element":
            self._read_element(el, parent)
        elif local in ("sequence", "choice"):
            self._read_compositor(el, parent)
        elif local == "annotation":
            return
        else:
            raise XSDError(f"unsupported schema construct <{el.tag}>")


def parse_xsd(source: str | Document, name: str = "schema") -> SchemaTree:
    """Parse XSD text (or a pre-parsed document) into a schema tree."""
    doc = parse_xml(source) if isinstance(source, str) else source
    if _local(doc.root.tag) != "schema":
        raise XSDError(f"expected <schema> root, found <{doc.root.tag}>")
    return _XSDReader(doc.root, name).read()


def parse_xsd_file(path: str) -> SchemaTree:
    """Parse an XSD file into a schema tree named after the path."""
    with open(path, encoding="utf-8") as handle:
        return parse_xsd(handle.read(), name=path)
