"""AST for the XPath subset used throughout the paper.

The subset (paper Section 2.1) is: child (``/``) and descendant (``//``)
axes, at most one value predicate per step (``[path op literal]`` or an
existence test ``[path]``), and a trailing union of projection paths
``/(a | b | c)``.

Example from the paper::

    //movie[title = "Titanic"]/(aka_title | avg_rating)

parses into a context path ``//movie`` whose step carries the selection
predicate, plus two projection paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import XPathError


class Axis(enum.Enum):
    CHILD = "/"
    DESCENDANT = "//"


class CompareOp(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def compare(self, left: str, right: str) -> bool:
        """Compare two string values, numerically when both parse."""
        try:
            a, b = float(left), float(right)
        except (TypeError, ValueError):
            a, b = left, right  # type: ignore[assignment]
        if self == CompareOp.EQ:
            return a == b
        if self == CompareOp.NE:
            return a != b
        if self == CompareOp.LT:
            return a < b
        if self == CompareOp.LE:
            return a <= b
        if self == CompareOp.GT:
            return a > b
        return a >= b


@dataclass(frozen=True)
class Step:
    """One location step: an axis plus an element name test."""

    axis: Axis
    name: str

    def __str__(self) -> str:
        return f"{self.axis.value}{self.name}"


def _relative(path: tuple[Step, ...]) -> str:
    """A relative path as the grammar spells it: a leading child axis
    is implied, a leading descendant axis is written."""
    text = "".join(str(step) for step in path)
    return text if text.startswith("//") else text[1:]


def quote_literal(value: str) -> str:
    """The canonical spelling of a string literal: ``"value"``, or
    ``'value'`` when the value itself contains ``"`` (the grammar has
    no escape, so a literal is delimited by the quote it lacks)."""
    return f"'{value}'" if '"' in value else f'"{value}"'


@dataclass(frozen=True)
class Predicate:
    """``[path op "literal"]`` or the existence test ``[path]``.

    ``path`` is relative to the step the predicate is attached to. The
    paper calls it the *selection path*. ``op`` without a ``value`` is
    a *template*: the comparison with its literal lifted out, printed
    ``[path op ?]`` — what every query of one shape shares
    (:func:`repro.xpath.parse_tokens`).
    """

    path: tuple[Step, ...]
    op: CompareOp | None = None
    value: str | None = None

    def __post_init__(self) -> None:
        if self.value is not None and '"' in self.value \
                and "'" in self.value:
            raise XPathError(
                f"literal {self.value!r} contains both quote characters; "
                f"the XPath subset has no escape to write it with")

    def __str__(self) -> str:
        inner = _relative(self.path)
        if self.op is None:
            return f"[{inner}]"
        literal = "?" if self.value is None else quote_literal(self.value)
        return f"[{inner} {self.op.value} {literal}]"


@dataclass(frozen=True)
class XPathQuery:
    """A full query: context path (+ optional predicate) and projections.

    ``steps``
        The context path from the document root. At most one step
        carries a predicate (index given by ``predicate_step``).
    ``projections``
        Relative paths returned by the query; empty means the context
        elements themselves are returned.
    """

    steps: tuple[Step, ...]
    predicate: Predicate | None = None
    predicate_step: int | None = None
    projections: tuple[tuple[Step, ...], ...] = ()

    def __post_init__(self) -> None:
        if (self.predicate is None) != (self.predicate_step is None):
            raise ValueError("predicate and predicate_step must be set together")

    def __str__(self) -> str:
        parts: list[str] = []
        for i, step in enumerate(self.steps):
            parts.append(str(step))
            if self.predicate is not None and i == self.predicate_step:
                parts.append(str(self.predicate))
        if self.projections:
            inner = " | ".join(_relative(path) for path in self.projections)
            parts.append(f"/({inner})")
        return "".join(parts)

    @property
    def projection_names(self) -> tuple[str, ...]:
        """Last element name of each projection path (for reporting)."""
        return tuple(path[-1].name for path in self.projections)
