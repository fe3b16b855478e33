"""The schema tree ``T(V, E, A)`` and its builder.

Structural conventions
----------------------

* A ``TAG`` node's children are its content particles, in order. A leaf
  element has a single ``SIMPLE`` child.
* ``REPETITION`` and ``OPTION`` nodes have exactly one child.
* ``CHOICE`` nodes have two or more children.
* ``SEQUENCE`` nodes are only produced by associativity groupings; the
  builder emits flat particle lists.

Any ``TAG`` node whose in-degree is not one in the paper's sense — the
root, and any element under a ``REPETITION`` — *must* carry a table
annotation in every mapping (they cannot be inlined into a parent row).

The compiled plan
-----------------

Everything the validator, the statistics collector, the mapper, the
shredder, the translator and the candidate selector need to know about
one element depends on the tree alone, never on the data or the
mapping. :meth:`SchemaTree.plan` compiles it once per ``TAG`` node into
an :class:`ElementPlan` — the only walk of a content region there is —
and everything else is lookups in that plan. The tree's structure
cannot change after :meth:`TreeBuilder.build`, so the cache is never
invalidated.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, NamedTuple

from ..errors import SchemaTreeError
from .nodes import UNBOUNDED, BaseType, NodeKind, SchemaNode

# Opcodes of a compiled content model (see ElementPlan.model).
M_TAG, M_OPTION, M_CHOICE, M_SEQUENCE, M_REPETITION = range(5)
_EMPTY_MODEL = (M_SEQUENCE, ())


def _lexical(body: str):
    """Full-match test for one base type's XSD lexical space (white
    space around the value collapses)."""
    return re.compile(rf"[ \t\n\r]*(?:{body})[ \t\n\r]*").fullmatch


#: ``string`` has no entry: every text is one.
_LEXICAL_CHECKS = {
    BaseType.INTEGER: _lexical(r"[+-]?[0-9]+"),
    BaseType.DECIMAL: _lexical(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"),
    BaseType.BOOLEAN: _lexical(r"true|false|0|1"),
    BaseType.DATE: _lexical(r"-?[0-9]{4,}-[0-9]{2}-[0-9]{2}"
                            r"(?:Z|[+-][0-9]{2}:[0-9]{2})?"),
}


class AttributePlan(NamedTuple):
    """One declared attribute of an element."""

    name: str
    node: SchemaNode
    base_type: BaseType
    required: bool
    lexical: Callable | None    # see ElementPlan.lexical


#: What an instance shows of its region's OPTION and CHOICE nodes:
#: ``("opt", option id)`` — something under the option is present — or
#: ``("choice", choice id, branch index)``. One vocabulary for
#: ``CollectedStats.joint``, ``ColumnSpec.features``, partition
#: conditions and the shredder's routing.
Atom = tuple


class DispatchEntry(NamedTuple):
    """How one child tag sits inside its parent's content region."""

    node: SchemaNode                        # the child TAG
    atoms: frozenset[Atom]                  # every OPTION / CHOICE crossed
    option_id: int | None                   # innermost OPTION crossed
    choice_branch: tuple[int, int] | None   # innermost (choice id, branch)
    rep_id: int | None                      # innermost REPETITION crossed


def _can_be_empty(model: tuple) -> bool:
    """Whether a compiled content model matches the empty sequence."""
    op = model[0]
    if op == M_TAG:
        return False
    if op == M_OPTION:
        return True
    if op == M_CHOICE:
        return any(map(_can_be_empty, model[1]))
    if op == M_SEQUENCE:
        return all(map(_can_be_empty, model[1]))
    return model[2] == 0 or _can_be_empty(model[1])     # M_REPETITION


class ElementPlan:
    """What one ``TAG`` node's declaration says, compiled to lookups.

    ``model`` is the content model as nested tuples — ``(M_TAG, name)``,
    ``(M_OPTION, item)``, ``(M_CHOICE, items)``, ``(M_SEQUENCE, items)``,
    ``(M_REPETITION, item, min_occurs, max_occurs)`` — ``entries`` the
    region's child elements in declaration order (``entry_of`` finds
    one by node id), ``members`` the same interleaved with the
    element's attributes as declared (column order follows it), and
    ``repetitions`` the ids of the REPETITION nodes crossed on the way
    to them. ``choices`` maps each CHOICE node of the region to whether
    an instance can show *no* branch of it: it sits under an OPTION or
    in another choice's branch, or one of its branches can be empty. A
    region ends at its child TAGs: their content is their own plan's.

    Element names are unambiguous within one content model in our
    schema subset. Where a schema repeats one anyway, ``dispatch`` maps
    the name to its first declaration and ``last_dispatch`` to its last
    (they are one dict otherwise).
    """

    __slots__ = ("node", "node_id", "is_leaf", "base_type", "lexical",
                 "attributes", "attribute_nodes", "attribute_by_name",
                 "required_attributes", "model", "members", "entries",
                 "entry_of", "dispatch", "last_dispatch", "repetitions",
                 "choices")

    def __init__(self, tree: "SchemaTree", node: SchemaNode):
        if node.kind != NodeKind.TAG:
            raise SchemaTreeError(f"{node!r} is not an element")
        self.node = node
        self.node_id = node.node_id
        members: list[AttributePlan | DispatchEntry] = []
        repetitions: list[int] = []
        self.choices: dict[int, bool] = {}

        def compile_particle(particle: SchemaNode, atoms: frozenset,
                             option_id, choice_branch, rep_id) -> tuple:
            kind = particle.kind
            if kind == NodeKind.TAG:
                members.append(DispatchEntry(particle, atoms, option_id,
                                             choice_branch, rep_id))
                return (M_TAG, particle.name)
            if kind == NodeKind.SIMPLE:
                return _EMPTY_MODEL
            inner = tree.children(particle)
            if kind == NodeKind.OPTION:
                return (M_OPTION, compile_particle(
                    inner[0], atoms | {("opt", particle.node_id)},
                    particle.node_id, choice_branch, rep_id))
            if kind == NodeKind.CHOICE:
                branches = tuple(
                    compile_particle(
                        branch, atoms | {("choice", particle.node_id, index)},
                        option_id, (particle.node_id, index), rep_id)
                    for index, branch in enumerate(inner))
                self.choices[particle.node_id] = (
                    bool(atoms) or any(map(_can_be_empty, branches)))
                return (M_CHOICE, branches)
            if kind == NodeKind.SEQUENCE:
                return (M_SEQUENCE, tuple(
                    compile_particle(item, atoms, option_id, choice_branch,
                                     rep_id) for item in inner))
            if kind == NodeKind.REPETITION:
                repetitions.append(particle.node_id)
                return (M_REPETITION,
                        compile_particle(inner[0], atoms, option_id,
                                         choice_branch, particle.node_id),
                        particle.min_occurs, particle.max_occurs)
            raise SchemaTreeError(
                f"{particle!r} cannot appear in a content model")

        particles, models = [], []
        for child in tree.children(node):
            if child.kind == NodeKind.ATTRIBUTE:
                base = tree.children(child)[0].base_type
                members.append(AttributePlan(
                    child.name, child, base, child.min_occurs >= 1,
                    _LEXICAL_CHECKS.get(base)))
            else:
                particles.append(child)
                models.append(compile_particle(child, frozenset(), None,
                                               None, None))
        self.model = (M_SEQUENCE, tuple(models))
        self.members = tuple(members)
        self.attributes = tuple(m for m in members
                                if isinstance(m, AttributePlan))
        self.attribute_nodes = tuple(a.node for a in self.attributes)
        self.attribute_by_name = {a.name: a for a in self.attributes}
        self.required_attributes = tuple(
            a.name for a in self.attributes if a.required)
        self.is_leaf = (len(particles) == 1
                        and particles[0].kind == NodeKind.SIMPLE)
        self.base_type = particles[0].base_type if self.is_leaf else None
        #: Returns ``None`` for a text outside the leaf's lexical space;
        #: itself ``None`` where any text is valid.
        self.lexical = _LEXICAL_CHECKS.get(self.base_type)
        self.entries = tuple(m for m in members
                             if isinstance(m, DispatchEntry))
        self.entry_of = {e.node.node_id: e for e in self.entries}
        self.repetitions = tuple(repetitions)
        self.last_dispatch = {e.node.name: e for e in self.entries}
        self.dispatch = self.last_dispatch
        if len(self.dispatch) != len(self.entries):
            self.dispatch = {}
            for entry in self.entries:
                self.dispatch.setdefault(entry.node.name, entry)


class SchemaTree:
    """An immutable-structure schema tree.

    Build one with :class:`TreeBuilder` or the parsers in
    :mod:`repro.xsd.parser` / :mod:`repro.xsd.dtd`.
    """

    def __init__(self, nodes: list[SchemaNode], root_id: int, name: str = "schema"):
        self._nodes = nodes
        self.root_id = root_id
        self.name = name
        self._children = [tuple(nodes[cid] for cid in node.child_ids)
                          for node in nodes]
        # One ElementPlan per TAG node, compiled on first use. Two
        # threads racing to fill a slot build equal plans; either wins.
        self._plans: list[ElementPlan | None] = [None] * len(nodes)
        self._validate()

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> SchemaNode:
        """The node with the given id."""
        try:
            return self._nodes[node_id]
        except IndexError:
            raise SchemaTreeError(f"no node with id {node_id}") from None

    @property
    def root(self) -> SchemaNode:
        return self._nodes[self.root_id]

    @property
    def nodes(self) -> tuple[SchemaNode, ...]:
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def children(self, node: SchemaNode | int) -> tuple[SchemaNode, ...]:
        if not isinstance(node, int):
            node = node.node_id
        try:
            return self._children[node]
        except IndexError:
            raise SchemaTreeError(f"no node with id {node}") from None

    def plan(self, node: SchemaNode | int) -> ElementPlan:
        """The compiled :class:`ElementPlan` of a TAG node."""
        if not isinstance(node, int):
            node = node.node_id
        try:
            plan = self._plans[node]
        except IndexError:
            raise SchemaTreeError(f"no node with id {node}") from None
        if plan is None:
            plan = self._plans[node] = ElementPlan(self, self._nodes[node])
        return plan

    def parent(self, node: SchemaNode | int) -> SchemaNode | None:
        if isinstance(node, int):
            node = self.node(node)
        if node.parent_id is None:
            return None
        return self._nodes[node.parent_id]

    def iter_nodes(self) -> Iterator[SchemaNode]:
        """Pre-order traversal from the root."""
        stack = [self.root_id]
        while stack:
            node = self._nodes[stack.pop()]
            yield node
            stack.extend(reversed(node.child_ids))

    def nodes_of_kind(self, kind: NodeKind) -> list[SchemaNode]:
        return [n for n in self.iter_nodes() if n.kind == kind]

    # ------------------------------------------------------------------
    # Classification helpers used by the mapping layer
    # ------------------------------------------------------------------
    def is_leaf_element(self, node: SchemaNode | int) -> bool:
        """True for a TAG node whose only non-attribute child is SIMPLE."""
        if isinstance(node, int):
            node = self.node(node)
        return node.kind == NodeKind.TAG and self.plan(node).is_leaf

    def is_attribute(self, node: SchemaNode | int) -> bool:
        if isinstance(node, int):
            node = self.node(node)
        return node.kind == NodeKind.ATTRIBUTE

    def is_value_node(self, node: SchemaNode | int) -> bool:
        """Leaf element or attribute: anything holding one simple value."""
        return self.is_leaf_element(node) or self.is_attribute(node)

    def attributes_of(self, node: SchemaNode | int) -> tuple[SchemaNode, ...]:
        """ATTRIBUTE children of a TAG node."""
        if isinstance(node, int):
            node = self.node(node)
        if node.kind != NodeKind.TAG:
            return ()
        return self.plan(node).attribute_nodes

    def leaf_base_type(self, node: SchemaNode | int) -> BaseType:
        """Base type of a leaf element or attribute."""
        if isinstance(node, int):
            node = self.node(node)
        if node.kind == NodeKind.ATTRIBUTE:
            return self.children(node)[0].base_type
        if not self.is_leaf_element(node):
            raise SchemaTreeError(f"{node!r} is not a leaf element/attribute")
        return self.plan(node).base_type

    def must_annotate(self, node: SchemaNode | int) -> bool:
        """Whether this TAG node must map to its own table in any mapping.

        Per Section 2: any node with in-degree not equal to one — the
        root, or an element under a ``*`` — must have an annotation.
        """
        if isinstance(node, int):
            node = self.node(node)
        if node.kind != NodeKind.TAG:
            return False
        if node.node_id == self.root_id:
            return True
        parent = self.parent(node)
        return parent is not None and parent.kind == NodeKind.REPETITION

    def nearest_tag_ancestor(self, node: SchemaNode | int) -> SchemaNode | None:
        """Closest enclosing TAG node (skipping constructor nodes)."""
        if isinstance(node, int):
            node = self.node(node)
        current = self.parent(node)
        while current is not None and current.kind != NodeKind.TAG:
            current = self.parent(current)
        return current

    def entry(self, node: SchemaNode | int) -> DispatchEntry:
        """How a TAG node sits in its parent element's region: its entry
        in that element's plan (for the root, one that crosses nothing)."""
        if isinstance(node, int):
            node = self.node(node)
        parent = self.nearest_tag_ancestor(node)
        if parent is None:
            return DispatchEntry(node, frozenset(), None, None, None)
        return self.plan(parent).entry_of[node.node_id]

    def enclosing_repetition(self, node: SchemaNode | int) -> SchemaNode | None:
        """The innermost REPETITION between a TAG node and its parent
        element, if any (OPTION/CHOICE/SEQUENCE nodes are transparent)."""
        rep_id = self.entry(node).rep_id
        return None if rep_id is None else self._nodes[rep_id]

    def tag_path(self, node: SchemaNode | int) -> tuple[str, ...]:
        """Tag names from the root down to (and including) this node.

        Only TAG nodes contribute; constructor nodes are transparent.
        """
        if isinstance(node, int):
            node = self.node(node)
        names: list[str] = []
        current: SchemaNode | None = node
        while current is not None:
            if current.kind == NodeKind.TAG:
                names.append(current.name)
            current = self.parent(current)
        return tuple(reversed(names))

    def find_tags(self, name: str) -> list[SchemaNode]:
        """All TAG nodes with the given element name."""
        return [n for n in self.iter_nodes()
                if n.kind == NodeKind.TAG and n.name == name]

    def find_tag_by_path(self, path: tuple[str, ...] | list[str]) -> SchemaNode:
        """The unique TAG node at an absolute tag path (root included)."""
        matches = [n for n in self.iter_nodes()
                   if n.kind == NodeKind.TAG and self.tag_path(n) == tuple(path)]
        if not matches:
            raise SchemaTreeError(f"no element at path {'/'.join(path)!r}")
        if len(matches) > 1:
            raise SchemaTreeError(f"ambiguous path {'/'.join(path)!r}")
        return matches[0]

    # ------------------------------------------------------------------
    # Structural equivalence (for shared types / type merge)
    # ------------------------------------------------------------------
    def structural_signature(self, node: SchemaNode | int) -> tuple:
        """A hashable signature capturing the subtree's structure.

        Two nodes are *logically equivalent* (candidates for type merge /
        shared types) when their signatures are equal. Annotations are
        deliberately excluded.
        """
        if isinstance(node, int):
            node = self.node(node)
        children = tuple(self.structural_signature(c) for c in self.children(node))
        occurs = (node.min_occurs, node.max_occurs) if node.kind == NodeKind.REPETITION else ()
        base = node.base_type.value if node.base_type is not None else ""
        return (node.kind.value, node.name, base, occurs, children)

    def equivalent(self, a: SchemaNode | int, b: SchemaNode | int) -> bool:
        return self.structural_signature(a) == self.structural_signature(b)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self._nodes:
            raise SchemaTreeError("schema tree has no nodes")
        root = self._nodes[self.root_id]
        if root.kind != NodeKind.TAG:
            raise SchemaTreeError("root node must be a TAG")
        for node in self._nodes:
            if node.kind in (NodeKind.REPETITION, NodeKind.OPTION):
                if len(node.child_ids) != 1:
                    raise SchemaTreeError(
                        f"{node.kind.value} node #{node.node_id} must have exactly one child")
            if node.kind == NodeKind.CHOICE and len(node.child_ids) < 2:
                raise SchemaTreeError(
                    f"choice node #{node.node_id} must have at least two children")
            if node.kind == NodeKind.ATTRIBUTE:
                parent = self.parent(node)
                if parent is None or parent.kind != NodeKind.TAG:
                    raise SchemaTreeError(
                        f"attribute node #{node.node_id} must sit on a TAG")
                kids = self.children(node)
                if len(kids) != 1 or kids[0].kind != NodeKind.SIMPLE:
                    raise SchemaTreeError(
                        f"attribute node #{node.node_id} needs one simple type")
            if node.kind == NodeKind.SIMPLE:
                if node.child_ids:
                    raise SchemaTreeError("simple nodes cannot have children")
                if node.base_type is None:
                    raise SchemaTreeError("simple nodes must carry a base type")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SchemaTree {self.name!r} nodes={len(self._nodes)}>"

    def pretty(self) -> str:
        """Human-readable indented dump (used in docs and debugging)."""
        lines: list[str] = []

        def walk(node: SchemaNode, depth: int) -> None:
            label = node.name or node.kind.value
            marks = ""
            if node.kind == NodeKind.REPETITION:
                bound = "*" if node.max_occurs == UNBOUNDED else str(node.max_occurs)
                marks = f" [{node.min_occurs}..{bound}]"
            if node.annotation:
                marks += f" ({node.annotation})"
            lines.append("  " * depth + f"{node.kind.value}:{label}{marks}")
            for child in self.children(node):
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


class TreeBuilder:
    """Fluent builder for schema trees.

    Example::

        b = TreeBuilder("movie-db")
        movies = b.tag("movies", annotation="movies")
        movie = b.tag("movie", parent=b.rep(movies), annotation="movie")
        b.leaf("title", movie)
        b.leaf("year", movie, BaseType.INTEGER)
        tree = b.build(root=movies)

    A builder is single-use: the tree shares its node list, so adding a
    node after :meth:`build` would leave the tree's compiled plans stale.
    """

    def __init__(self, name: str = "schema"):
        self.name = name
        self._nodes: list[SchemaNode] = []
        self._built = False

    def _add(self, kind: NodeKind, parent: SchemaNode | None, **kwargs) -> SchemaNode:
        if self._built:
            raise SchemaTreeError(
                f"builder {self.name!r} already built its tree; "
                f"start a new TreeBuilder")
        node = SchemaNode(node_id=len(self._nodes), kind=kind, **kwargs)
        if parent is not None:
            node.parent_id = parent.node_id
            parent.child_ids.append(node.node_id)
        self._nodes.append(node)
        return node

    def tag(self, name: str, parent: SchemaNode | None = None,
            annotation: str | None = None) -> SchemaNode:
        return self._add(NodeKind.TAG, parent, name=name, annotation=annotation)

    def rep(self, parent: SchemaNode, min_occurs: int = 0,
            max_occurs: int = UNBOUNDED) -> SchemaNode:
        return self._add(NodeKind.REPETITION, parent,
                         min_occurs=min_occurs, max_occurs=max_occurs)

    def opt(self, parent: SchemaNode) -> SchemaNode:
        return self._add(NodeKind.OPTION, parent, min_occurs=0, max_occurs=1)

    def choice(self, parent: SchemaNode) -> SchemaNode:
        return self._add(NodeKind.CHOICE, parent)

    def seq(self, parent: SchemaNode) -> SchemaNode:
        return self._add(NodeKind.SEQUENCE, parent)

    def attribute(self, name: str, parent: SchemaNode,
                  base_type: BaseType = BaseType.STRING,
                  required: bool = False) -> SchemaNode:
        """Declare an XML attribute on a TAG node.

        ``min_occurs`` encodes use: 1 = required, 0 = optional.
        """
        node = self._add(NodeKind.ATTRIBUTE, parent, name=name,
                         min_occurs=1 if required else 0, max_occurs=1)
        self.simple(node, base_type)
        return node

    def simple(self, parent: SchemaNode, base_type: BaseType = BaseType.STRING) -> SchemaNode:
        return self._add(NodeKind.SIMPLE, parent, name=base_type.value,
                         base_type=base_type)

    def leaf(self, name: str, parent: SchemaNode,
             base_type: BaseType = BaseType.STRING,
             annotation: str | None = None) -> SchemaNode:
        """Create ``<name>`` as a leaf element with a simple type."""
        tag = self.tag(name, parent, annotation=annotation)
        self.simple(tag, base_type)
        return tag

    def optional_leaf(self, name: str, parent: SchemaNode,
                      base_type: BaseType = BaseType.STRING) -> SchemaNode:
        """Create ``<name>?`` — returns the TAG node."""
        option = self.opt(parent)
        return self.leaf(name, option, base_type)

    def repeated_leaf(self, name: str, parent: SchemaNode,
                      annotation: str | None = None) -> SchemaNode:
        """Create ``<name>*`` of strings — returns the TAG node
        (annotated)."""
        return self.leaf(name, self.rep(parent), BaseType.STRING,
                         annotation=annotation or name)

    def build(self, root: SchemaNode) -> SchemaTree:
        tree = SchemaTree(self._nodes, root.node_id, name=self.name)
        self._built = True
        return tree
