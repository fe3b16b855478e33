"""A from-scratch, non-validating XML parser.

Supports the subset of XML needed for data files and XSD documents:

* elements with attributes (single- or double-quoted)
* character data with the five predefined entities and numeric references
* comments, processing instructions, CDATA sections, and DOCTYPE
  declarations (skipped)
* an optional XML declaration

It is deliberately strict about well-formedness (mismatched tags, stray
``<``, unterminated constructs all raise :class:`~repro.errors.XMLParseError`
with a line/column) because the shredder must never load garbage silently.

Two readers share one grammar. Element content is cut into tokens by
one compiled regex (:data:`_TOKEN`) and assembled on an explicit stack,
so neither a character nor a nesting level costs a Python call; the run
of attribute-less leaves after a start tag (a record's fields) is one
match of :data:`_LEAF_RUN`, attached whole. The character-at-a-time
:class:`_Scanner` reads the prolog and whatever follows the root, and
re-reads the one token the regex refused — it is what words every
syntax error and finds its line and column.
"""

from __future__ import annotations

import re
from typing import NoReturn

from ..errors import XMLParseError
from .doc import (NO_ATTRIBUTES, Document, Element, _new_child, _new_leaves,
                  collection_paused)

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")


class _Scanner:
    """Cursor over the input text with line/column tracking."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    def location(self, pos: int | None = None) -> tuple[int, int]:
        """Return (line, column), both 1-based, for a position."""
        if pos is None:
            pos = self.pos
        line = self.text.count("\n", 0, pos) + 1
        last_nl = self.text.rfind("\n", 0, pos)
        column = pos - last_nl
        return line, column

    def error(self, message: str, pos: int | None = None) -> XMLParseError:
        line, column = self.location(pos)
        return XMLParseError(message, line, column)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.length else ""

    def startswith(self, token: str | tuple[str, ...]) -> bool:
        return self.text.startswith(token, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def read_until(self, token: str, construct: str) -> str:
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {construct}")
        value = self.text[self.pos:end]
        self.pos = end + len(token)
        return value

    def read_name(self) -> str:
        start = self.pos
        if self.pos >= self.length or self.text[self.pos] not in _NAME_START:
            raise self.error("expected a name")
        self.pos += 1
        while self.pos < self.length and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        return self.text[start:self.pos]


def _decode_entities(raw: str, scanner: _Scanner, at: int) -> str:
    """Replace entity and character references in character data."""
    if "&" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i + 1)
        if end < 0:
            raise scanner.error("unterminated entity reference", at + i)
        name = raw[i + 1:end]
        if name.startswith("#"):
            hexadecimal = name.startswith(("#x", "#X"))
            try:
                out.append(chr(int(name[2:], 16) if hexadecimal
                               else int(name[1:])))
            except (ValueError, OverflowError):
                # not a number, or no code point: beyond U+10FFFF is a
                # ValueError, beyond a C int an OverflowError
                raise scanner.error(f"bad character reference &{name};",
                                    at + i) from None
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise scanner.error(f"unknown entity &{name};", at + i)
        i = end + 1
    return "".join(out)


def _parse_attributes(scanner: _Scanner) -> dict[str, str]:
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        ch = scanner.peek()
        if ch in (">", "/", "?", ""):
            return attributes
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        at = scanner.pos
        raw = scanner.read_until(quote, "attribute value")
        if name in attributes:
            raise scanner.error(f"duplicate attribute {name!r}", at)
        attributes[name] = _decode_entities(raw, scanner, at)


def _skip_misc(scanner: _Scanner) -> None:
    """Skip comments, PIs, and DOCTYPE between/around elements."""
    while True:
        scanner.skip_whitespace()
        if scanner.startswith("<!--"):
            scanner.advance(4)
            scanner.read_until("-->", "comment")
        elif scanner.startswith("<?"):
            scanner.advance(2)
            scanner.read_until("?>", "processing instruction")
        elif scanner.startswith("<!DOCTYPE"):
            # Skip to the matching '>' allowing one level of [...] subset.
            depth = 0
            while not scanner.at_end():
                ch = scanner.peek()
                scanner.advance()
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                elif ch == ">" and depth <= 0:
                    break
            else:
                raise scanner.error("unterminated DOCTYPE")
        else:
            return


def parse(text: str) -> Document:
    """Parse XML text into a :class:`~repro.xmlkit.doc.Document`."""
    scanner = _Scanner(text)
    version, encoding = "1.0", "UTF-8"
    scanner.skip_whitespace()
    if scanner.startswith("<?xml"):
        scanner.advance(5)
        declared = _parse_attributes(scanner)
        scanner.skip_whitespace()
        scanner.expect("?>")
        version = declared.get("version", version)
        encoding = declared.get("encoding", encoding)
    _skip_misc(scanner)
    if scanner.peek() != "<":
        raise scanner.error("expected root element")
    with collection_paused():
        root = _parse_tree(scanner)
    _skip_misc(scanner)
    if not scanner.at_end():
        raise scanner.error("content after root element")
    return Document(root, version=version, encoding=encoding)


def parse_file(path: str) -> Document:
    """Parse an XML file (UTF-8, with or without a BOM) into a Document."""
    with open(path, encoding="utf-8-sig") as handle:
        return parse(handle.read())


# One token of element content per match. Names and whitespace are the
# scanner's (_NAME_START / _NAME_CHARS and " \t\r\n" — not ``\s``, which
# takes in U+00A0 and others); ``_parse_tree`` tells the alternatives
# apart by the number of the last group that matched.
_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_WS = r"[ \t\r\n]*"
_TOKEN = re.compile(
    "<(?:"
    # 1, 2: an attribute-less leaf, start tag to end tag
    rf"({_NAME})>([^<]*)</\1{_WS}>"
    # 3, 4, 5: a start tag (its name whole: ``<ab="1">`` is not ``<a b="1">``,
    # though ``b="1"c="2"`` is two attributes), its attribute run, "/"
    # when it is empty
    rf"|({_NAME})(?![A-Za-z0-9_:.\-])"
    rf"((?:{_WS}{_NAME}{_WS}={_WS}(?:\"[^\"]*\"|'[^']*'))*){_WS}(/?)>"
    # 6: an end tag
    rf"|/({_NAME}){_WS}>"
    # 7: the content of a CDATA section
    r"|!\[CDATA\[(.*?)\]\]>"
    # no group: a comment, a processing instruction
    r"|!--.*?-->"
    r"|\?.*?\?>"
    # 8: character data up to the next markup
    ")|([^<]+)(?=<)",
    re.DOTALL)
_LEAF, _START_TAG, _END_TAG, _CDATA, _TEXT = 2, 5, 6, 7, 8
_ATTRIBUTE = re.compile(rf"({_NAME}){_WS}={_WS}(?:\"([^\"]*)\"|'([^']*)')")
# A run of attribute-less leaves, each after the character data before
# it: what the token loop reads as _TEXT and _LEAF tokens, with no "&" in
# it, so nothing to decode and nothing to refuse. ``_LEAVES`` cuts a span
# ``_LEAF_RUN`` matched into (character data, tag, text) triples; there,
# every "<" opens a tag and no tag holds a ">" before its end.
_LEAF_RUN = re.compile(rf"(?:[^<&]*<({_NAME})>[^<&]*</\1{_WS}>)+")
_LEAVES = re.compile(r"([^<]*)<([^>]*)>([^<]*)<[^>]*>")


def _parse_tree(scanner: _Scanner) -> Element:
    """Parse the element at the scanner's position, with all its content,
    and leave the scanner behind its end tag."""
    text = scanner.text
    match = _TOKEN.match
    match_run = _LEAF_RUN.match
    leaves = _LEAVES.findall
    pos = scanner.pos
    first = match(text, pos)
    if first is None or first.lastindex not in (_LEAF, _START_TAG):
        _refuse(scanner, pos, None)
    # ``holder`` stands above the root so that the root is attached like
    # any other element; ``current`` is the innermost open element and
    # ``stack`` the open elements around it.
    holder = current = Element("")
    stack: list[Element] = []
    while True:
        token = match(text, pos)
        if token is None:
            _refuse(scanner, pos, current.tag)
        kind = token.lastindex
        if kind == _LEAF:
            raw = token.group(2)
            if "&" in raw:
                raw = _decode_entities(raw, scanner, token.start(2))
            _new_child(current, token.group(1), NO_ATTRIBUTES, raw)
        elif kind == _TEXT:
            current.add_text(_decode_entities(token.group(8), scanner, pos))
            pos = token.end()
            continue
        elif kind == _START_TAG:
            # an element without attributes keeps the shared empty map
            start, end = token.span(4)
            attributes = {} if start < end else NO_ATTRIBUTES
            for found in _ATTRIBUTE.finditer(text, start, end):
                name = found.group(1)
                value = 2 if found.start(2) >= 0 else 3
                if name in attributes:
                    raise scanner.error(f"duplicate attribute {name!r}",
                                        found.start(value))
                attributes[name] = _decode_entities(
                    found.group(value), scanner, found.start(value))
            element = _new_child(current, token.group(3), attributes, "")
            if not token.group(5):
                stack.append(current)
                current = element
                pos = token.end()
                # The leaves that follow, whole; the loop reads on from
                # wherever the run stops.
                run = match_run(text, pos)
                if run is not None:
                    end = run.end()
                    _new_leaves(element, leaves(text, pos, end))
                    pos = end
                continue
        elif kind == _END_TAG:
            name = token.group(6)
            if name != current.tag:
                raise scanner.error(
                    f"mismatched end tag </{name}> for <{current.tag}>",
                    token.end(6))
            current = stack.pop()
        else:
            if kind == _CDATA:
                current.add_text(token.group(7))
            pos = token.end()
            continue
        # An element is complete (where a per-record consumer would take
        # a depth-1 subtree); the root's completion ends the tree.
        pos = token.end()
        if current is holder:
            scanner.pos = pos
            return holder._children[0]


def _refuse(scanner: _Scanner, pos: int, open_tag: str | None) -> NoReturn:
    """Raise what is wrong with the token at ``pos``, which ``_TOKEN``
    refused, by reading it a character at a time; ``open_tag`` names the
    element whose content it is in, ``None`` where the root must start."""
    scanner.pos = pos
    if open_tag is None or (scanner.peek() == "<" and not scanner.startswith(
            ("</", "<!--", "<![CDATA[", "<?"))):
        scanner.expect("<")
        scanner.read_name()
        _parse_attributes(scanner)
        scanner.skip_whitespace()
        if not scanner.startswith("/>"):
            scanner.expect(">")
    elif scanner.startswith("</"):
        scanner.advance(2)
        name = scanner.read_name()
        if name != open_tag:
            raise scanner.error(
                f"mismatched end tag </{name}> for <{open_tag}>")
        scanner.skip_whitespace()
        scanner.expect(">")
    elif scanner.startswith("<!--"):
        scanner.advance(4)
        scanner.read_until("-->", "comment")
    elif scanner.startswith("<![CDATA["):
        scanner.advance(9)
        scanner.read_until("]]>", "CDATA section")
    elif scanner.startswith("<?"):
        scanner.advance(2)
        scanner.read_until("?>", "processing instruction")
    else:
        # the input ends in this element, on or after character data
        raise scanner.error(f"unterminated element <{open_tag}>")
    raise scanner.error("malformed markup", pos)    # the readers disagree
