"""Lexer and recursive-descent parser for the XPath subset.

Grammar, over token kinds (whitespace may separate any two tokens)::

    query      := abspath ( "/" "(" relpath ("|" relpath)* ")" )?
    abspath    := (("/" | "//") step)+
    step       := NAME predicate?
    predicate  := "[" relpath ( op literal )? "]"
    relpath    := "//"? step (("/" | "//") step)*
    op         := "=" | "!=" | "<" | "<=" | ">" | ">="
    literal    := '"' chars '"' | "'" chars "'" | number

At most one predicate is allowed per query (the paper's queries have a
single selection path); more than one raises ``XPathError``.

:func:`lex` is the only reader of query text: it splits it into a
*shape* — the token sequence with every literal lifted out — and the
lifted values. The grammar never looks inside a literal, so whether a
text parses, and into which tree, depends on its shape alone:
:func:`parse_tokens` builds the tree from a shape, and the serving
layer's plan cache keys on the shape to recognise a text as valid
without parsing it (``repro.serve.plan_cache``).

Texts that differ only inside their quotes tokenise alike, so the text
is split once around its quoted literals, what is left (each literal
emptied) is tokenised once and remembered, and the literals' contents
go back into its quoted slots. :func:`tokenise`, the one regex pass,
is what such a text costs on first sight and the reference :func:`lex`
must equal.
"""

from __future__ import annotations

import functools
import re

from ..errors import XPathError
from .ast import Axis, CompareOp, Predicate, Step, XPathQuery

#: One token per match, in exactly one group: a literal, a name
#: (``@name`` for an attribute step), or a symbol. The last alternative
#: takes any other character on its own, so every non-space character
#: of the text lands in some token and junk can never equal a symbol
#: the grammar asks for. Longest operators first: ``<=`` wins over ``<``.
_TOKEN_RE = re.compile(r"""\s*(?:
      ( "[^"]*" | '[^']*' | -?\d+(?:\.\d+)? )
    | ( @?[A-Za-z_][\w.\-]* )
    | ( // | [/()|\[\]] | [!<>]= | [=<>] | \S )
    )""", re.VERBOSE)

#: ``(names, symbols)``, one entry per token: the token's text under
#: its kind and ``""`` under the other; ``""`` in both is a literal.
Shape = tuple[tuple[str, ...], tuple[str, ...]]

_END = "end of query"   # no token: junk is one character long
_OPS = frozenset(op.value for op in CompareOp)


def tokenise(text: str) -> tuple[Shape, tuple[str, ...]]:
    """``(shape, values)`` of ``text`` in one pass of the token regex:
    its tokens without their literals, and the literals' values (quotes
    stripped; a number is its own text) in source order."""
    found = _TOKEN_RE.findall(text)
    if not found:
        return ((), ()), ()
    literals, names, symbols = zip(*found)
    return (names, symbols), tuple(
        [source[1:-1] if source[0] in "\"'" else source
         for source in filter(None, literals)])


#: A quoted literal. No name or number holds a quote, and a quote with
#: no partner after it is a symbol of its own; so the leftmost such
#: span, and each next one, is exactly where the token regex reads one.
_QUOTED_RE = re.compile(r"""("[^"]*"|'[^']*')""")

#: Templates remembered: the plan cache's default capacity (128 shapes)
#: times the spelling variants (spacing, quote kind) of each it should
#: absorb. A text's numbers stay in its template (a digit can be part
#: of a name), so each distinct unquoted number takes an entry too.
_TEMPLATES = 128 * 8

_tokenise_template = functools.lru_cache(maxsize=_TEMPLATES)(tokenise)


def lex(text: str) -> tuple[Shape, tuple[str, ...]]:
    """:func:`tokenise` of ``text``, tokenising only its *template*:
    the text with each quoted literal emptied (an empty literal of the
    same quote kind, so an unpartnered quote elsewhere cannot pair with
    it)."""
    pieces = _QUOTED_RE.split(text)
    if len(pieces) == 1:
        return _tokenise_template(text)
    quoted = pieces[1::2]
    pieces[1::2] = [literal[0] * 2 for literal in quoted]
    shape, slots = _tokenise_template("".join(pieces))
    if len(slots) == 1:     # the one literal the grammar allows
        return shape, (quoted[0][1:-1],)
    # A number is never empty, so the empty slots are the quoted ones.
    contents = iter([literal[1:-1] for literal in quoted])
    return shape, tuple([slot or next(contents) for slot in slots])


class _Tokens:
    """A shape being read left to right."""

    def __init__(self, shape: Shape, text: str):
        self.names = shape[0] + ("",)
        self.symbols = shape[1] + (_END,)
        self.text = text
        self.pos = 0

    def fail(self, expected: str) -> XPathError:
        found = self.names[self.pos] or self.symbols[self.pos]
        if not found:
            found = "a literal"
        elif found != _END:
            found = repr(found)
        return XPathError(f"expected {expected} but found {found} "
                          f"(token {self.pos + 1}) in {self.text!r}")

    def peek(self, symbol: str) -> bool:
        return self.symbols[self.pos] == symbol

    def take(self, symbol: str) -> bool:
        if self.symbols[self.pos] == symbol:
            self.pos += 1
            return True
        return False

    def expect(self, symbol: str) -> None:
        if not self.take(symbol):
            raise self.fail(repr(symbol))

    def name(self) -> str:
        """An element name, or ``@name`` for an attribute step."""
        name = self.names[self.pos]
        if not name:
            raise self.fail("a name")
        self.pos += 1
        return name

    def literal(self) -> None:
        if self.names[self.pos] or self.symbols[self.pos]:
            raise self.fail("a literal")
        self.pos += 1

    def axis(self) -> Axis | None:
        if self.take("//"):
            return Axis.DESCENDANT
        if self.take("/"):
            return Axis.CHILD
        return None

    def relpath(self) -> tuple[Step, ...]:
        # "//" may open a relative path, "/" may not: in a predicate it
        # would start an absolute path, which the subset does not have.
        first = Axis.DESCENDANT if self.take("//") else Axis.CHILD
        steps = [Step(first, self.name())]
        while True:
            axis = self.axis()
            if axis is None:
                return tuple(steps)
            steps.append(Step(axis, self.name()))

    def predicate(self, value: str | None) -> Predicate:
        self.expect("[")
        path = self.relpath()
        op = None
        if self.symbols[self.pos] in _OPS:
            op = CompareOp(self.symbols[self.pos])
            self.pos += 1
            self.literal()
        else:
            value = None
        self.expect("]")
        return Predicate(path=path, op=op, value=value)


def parse_tokens(shape: Shape, text: str,
                 value: str | None = None) -> XPathQuery:
    """The query a shape spells, with ``value`` in its literal slot —
    by default nothing, which makes it the shape's *template*
    (:class:`~repro.xpath.ast.Predicate`). ``text`` is quoted in
    errors only."""
    tokens = _Tokens(shape, text)
    steps: list[Step] = []
    predicate: Predicate | None = None
    predicate_step: int | None = None
    projections: tuple[tuple[Step, ...], ...] = ()

    axis = tokens.axis()
    if axis is None:
        raise XPathError(f"query must start with '/' or '//': {text!r}")
    while True:
        # A '(' after the axis starts the projection group.
        if tokens.take("("):
            paths = [tokens.relpath()]
            while tokens.take("|"):
                paths.append(tokens.relpath())
            tokens.expect(")")
            projections = tuple(paths)
            if not tokens.peek(_END):
                raise XPathError(f"content after projection group in {text!r}")
            break
        steps.append(Step(axis, tokens.name()))
        if tokens.peek("["):
            if predicate is not None:
                raise XPathError(
                    f"only one predicate per query is supported: {text!r}")
            predicate = tokens.predicate(value)
            predicate_step = len(steps) - 1
        next_axis = tokens.axis()
        if next_axis is None:
            if not tokens.peek(_END):
                raise tokens.fail("'/', '//' or the end")
            break
        axis = next_axis
    if not steps:
        raise XPathError(f"empty context path in {text!r}")
    return XPathQuery(
        steps=tuple(steps),
        predicate=predicate,
        predicate_step=predicate_step,
        projections=projections,
    )


def parse_xpath(text: str) -> XPathQuery:
    """Parse an XPath expression into an :class:`XPathQuery`."""
    shape, values = lex(text)
    return parse_tokens(shape, text, values[0] if values else None)
