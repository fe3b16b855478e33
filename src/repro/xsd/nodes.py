"""Schema-tree node model.

Following the paper (Section 2), an XSD schema is represented as a tree
``T(V, E, A)`` whose nodes are type constructors:

* ``TAG`` — an element name,
* ``SEQUENCE`` — ordered content (``,``),
* ``REPETITION`` — ``*`` / ``+`` / bounded repetition (maxOccurs > 1),
* ``OPTION`` — ``?`` (minOccurs = 0, maxOccurs = 1),
* ``CHOICE`` — union (``|``),
* ``SIMPLE`` — a base type such as string or integer.

``A`` is the set of table annotations. In this implementation the *tree
structure is immutable*; annotations and the transformation attributes
(repetition-split counts, union-distribution schemes) live in
:class:`repro.mapping.Mapping` objects keyed by node id. This makes every
schema transformation a cheap dictionary edit and makes mappings hashable,
which the search algorithm relies on to avoid re-exploring duplicates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class NodeKind(enum.Enum):
    """The type constructors of the schema tree.

    The first six follow the paper's Section 2. ``ATTRIBUTE`` extends
    the model to XML attributes (``xs:attribute``): a named simple value
    attached to a TAG node, at most one occurrence, never repeated —
    always mapped to an inline column of the owning table.
    """

    TAG = "tag"
    SEQUENCE = "sequence"
    REPETITION = "repetition"
    OPTION = "option"
    CHOICE = "choice"
    SIMPLE = "simple"
    ATTRIBUTE = "attribute"


class BaseType(enum.Enum):
    """XSD base types we support."""

    STRING = "string"
    INTEGER = "integer"
    DECIMAL = "decimal"
    DATE = "date"
    BOOLEAN = "boolean"


# maxOccurs="unbounded" is modelled as this sentinel.
UNBOUNDED = -1


@dataclass
class SchemaNode:
    """One node of the schema tree.

    Attributes
    ----------
    node_id:
        Dense integer id, stable for the lifetime of the tree. All
        mapping-level attributes are keyed by it.
    kind:
        The type constructor.
    name:
        Element name for ``TAG`` nodes; base-type name for ``SIMPLE``
        nodes; empty otherwise.
    base_type:
        Set for ``SIMPLE`` nodes only.
    min_occurs / max_occurs:
        Occurrence bounds for ``REPETITION`` nodes (``max_occurs`` may be
        :data:`UNBOUNDED`). ``OPTION`` nodes are implicitly (0, 1).
    annotation:
        The *initial* table annotation from the schema document, or
        ``None``. Mappings start from these and then override them.
    """

    node_id: int
    kind: NodeKind
    name: str = ""
    base_type: BaseType | None = None
    min_occurs: int = 1
    max_occurs: int = 1
    annotation: str | None = None
    parent_id: int | None = None
    child_ids: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or self.kind.value
        return f"<SchemaNode #{self.node_id} {self.kind.value} {label!r}>"
