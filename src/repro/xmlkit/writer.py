"""Serialize xmlkit documents back to XML text.

The writer escapes the five predefined entities so that
``parse(serialize(doc))`` round-trips for any document the parser can
produce (verified by property-based tests).
"""

from __future__ import annotations

from io import StringIO

from .doc import Document, Element

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    for ch, repl in _TEXT_ESCAPES.items():
        if ch in value:
            value = value.replace(ch, repl)
    return value


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    for ch, repl in _ATTR_ESCAPES.items():
        if ch in value:
            value = value.replace(ch, repl)
    return value


def serialize_element(element: Element, out: StringIO, indent: int | None,
                      depth: int = 0) -> None:
    """Write one element (recursively) to ``out``.

    ``indent`` of ``None`` means compact output that preserves mixed
    content exactly; an integer pretty-prints with that many spaces per
    level (only safe when no element has mixed content worth preserving).
    """
    pad = "" if indent is None else "\n" + " " * (indent * depth)
    if indent is not None and depth > 0:
        out.write(pad)
    out.write(f"<{element.tag}")
    for name, value in element.attribute_map.items():
        out.write(f' {name}="{escape_attribute(value)}"')
    texts = element.text_segments
    children = element.children
    if not children and not any(texts):
        out.write("/>")
        return
    out.write(">")
    for i, child in enumerate(children):
        if texts[i]:
            out.write(escape_text(texts[i]))
        serialize_element(child, out, indent, depth + 1)
    if texts[len(children)]:
        out.write(escape_text(texts[len(children)]))
    elif indent is not None and children:
        out.write("\n" + " " * (indent * depth))
    out.write(f"</{element.tag}>")


def serialize(doc: Document | Element, indent: int | None = None,
              declaration: bool = True) -> str:
    """Serialize a document or element subtree to XML text."""
    out = StringIO()
    if isinstance(doc, Document):
        if declaration:
            out.write(
                f'<?xml version="{doc.version}" encoding="{doc.encoding}"?>')
            if indent is not None:
                out.write("\n")
        root = doc.root
    else:
        root = doc
    serialize_element(root, out, indent)
    return out.getvalue()
