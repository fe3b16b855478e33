"""XML document model, parser, and serializer (built from scratch)."""

from .doc import (Document, Element, LazyElement, collection_paused,
                  count_elements, element)
from .parser import parse, parse_file
from .writer import escape_attribute, escape_text, serialize

__all__ = [
    "Document",
    "Element",
    "LazyElement",
    "element",
    "count_elements",
    "collection_paused",
    "parse",
    "parse_file",
    "serialize",
    "escape_text",
    "escape_attribute",
]
