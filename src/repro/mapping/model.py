"""The ``Mapping`` value object.

A mapping from an XSD schema tree to a relational schema is fully
described by three assignments over the *immutable* tree:

* ``annotations`` — which TAG nodes map to their own table (the paper's
  annotation set ``A``); shared annotations express type merge, fresh
  names express type split,
* ``split_counts`` — repetition-split counts on REPETITION nodes whose
  child is a leaf element (paper Section 2.1 restricts repetition split
  to leaf nodes),
* ``distributions`` — union distributions: either on an explicit CHOICE
  node, or an *implicit union* over a set of OPTION nodes (including the
  merged candidates of Section 4.7).

Mappings are immutable and hashable, so the search algorithms can prune
duplicate mappings in O(1) — the key enabler for the paper's "avoid
searching duplicated mappings" optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from ..errors import MappingError
from ..xsd import NodeKind, SchemaTree


@dataclass(frozen=True)
class UnionDistribution:
    """One union-distribution transformation target.

    Exactly one of the two fields is set: ``choice_id`` for explicit
    choice distribution, ``optional_ids`` for an implicit union over
    optional elements (one or several — several encodes a *merged*
    candidate, paper Section 4.7).
    """

    choice_id: int | None = None
    optional_ids: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if (self.choice_id is None) == (not self.optional_ids):
            raise MappingError(
                "a union distribution names either a choice node or a "
                "non-empty set of optional nodes")

    @property
    def is_implicit(self) -> bool:
        return self.choice_id is None

    def nodes(self) -> frozenset[int]:
        if self.choice_id is not None:
            return frozenset({self.choice_id})
        return self.optional_ids


@dataclass(frozen=True)
class Mapping:
    """An XML-to-relational mapping over a fixed schema tree."""

    tree: SchemaTree = field(compare=False, hash=False, repr=False)
    annotations: tuple[tuple[int, str], ...] = ()
    split_counts: tuple[tuple[int, int], ...] = ()
    distributions: frozenset[UnionDistribution] = frozenset()

    # ------------------------------------------------------------------
    # Views of the frozen fields, built once per (immutable) mapping.
    # Read-only by convention: every functional update starts from the
    # field, never from the view.
    # ------------------------------------------------------------------
    @cached_property
    def annotation_map(self) -> dict[int, str]:
        return dict(self.annotations)

    @cached_property
    def split_map(self) -> dict[int, int]:
        return dict(self.split_counts)

    def __getstate__(self) -> dict:
        """Fields only: the cached views stay out of pickles and copies
        (they are not fields, so ``==``/``hash``/``repr`` never see them)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def annotation_of(self, node_id: int) -> str | None:
        return self.annotation_map.get(node_id)

    def nodes_with_annotation(self, annotation: str) -> list[int]:
        return [nid for nid, a in self.annotations if a == annotation]

    def signature(self) -> tuple:
        """Hashable identity of the mapping (tree is fixed per search)."""
        return (self.annotations, self.split_counts,
                frozenset(self.distributions))

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_annotation(self, node_id: int, annotation: str) -> "Mapping":
        items = dict(self.annotations)
        items[node_id] = annotation
        return replace(self, annotations=tuple(sorted(items.items())))

    def without_annotation(self, node_id: int) -> "Mapping":
        items = dict(self.annotations)
        items.pop(node_id, None)
        return replace(self, annotations=tuple(sorted(items.items())))

    def with_split(self, rep_node_id: int, count: int) -> "Mapping":
        if count < 1:
            raise MappingError("repetition-split count must be >= 1")
        items = dict(self.split_counts)
        items[rep_node_id] = count
        return replace(self, split_counts=tuple(sorted(items.items())))

    def without_split(self, rep_node_id: int) -> "Mapping":
        items = dict(self.split_counts)
        items.pop(rep_node_id, None)
        return replace(self, split_counts=tuple(sorted(items.items())))

    def with_distribution(self, dist: UnionDistribution) -> "Mapping":
        return replace(self,
                       distributions=self.distributions | {dist})

    def without_distribution(self, dist: UnionDistribution) -> "Mapping":
        return replace(self,
                       distributions=self.distributions - {dist})

    # ------------------------------------------------------------------
    # Structural helpers
    # ------------------------------------------------------------------
    def owner_of(self, node_id: int) -> int:
        """Nearest annotated ancestor-or-self TAG node id."""
        annotation_map = self.annotation_map
        tree = self.tree
        node = tree.node(node_id)
        while node is not None:
            if node.kind == NodeKind.TAG and node.node_id in annotation_map:
                return node.node_id
            node = tree.parent(node)
        raise MappingError(f"node {node_id} has no annotated ancestor "
                           f"(is the root annotated?)")

    def parent_owner_of(self, annotated_node_id: int) -> int | None:
        """Owner of the annotated node's parent region (for PID joins)."""
        parent = self.tree.parent(annotated_node_id)
        if parent is None:
            return None
        return self.owner_of(parent.node_id)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`MappingError` on a structurally invalid mapping."""
        tree = self.tree
        annotation_map = self.annotation_map
        for node_id in annotation_map:
            node = tree.node(node_id)
            if node.kind != NodeKind.TAG:
                raise MappingError(
                    f"annotation on non-TAG node #{node_id}")
        for node in tree.iter_nodes():
            if node.kind != NodeKind.TAG:
                continue
            if tree.entry(node).rep_id not in (None, node.parent_id):
                raise MappingError(
                    f"node #{node.node_id} <{node.name}> repeats as part of "
                    f"a group; only a repeated element can be mapped")
            if tree.must_annotate(node) and \
                    node.node_id not in annotation_map:
                raise MappingError(
                    f"node #{node.node_id} <{node.name}> must be annotated "
                    f"(root or under repetition)")
        # Shared annotations must be structurally equivalent.
        by_annotation: dict[str, list[int]] = {}
        for node_id, annotation in self.annotations:
            by_annotation.setdefault(annotation, []).append(node_id)
        for annotation, node_ids in by_annotation.items():
            signatures = {tree.structural_signature(nid) for nid in node_ids}
            if len(signatures) > 1:
                raise MappingError(
                    f"annotation {annotation!r} shared by non-equivalent "
                    f"types {node_ids}")
        for rep_id, count in self.split_counts:
            node = tree.node(rep_id)
            if node.kind != NodeKind.REPETITION:
                raise MappingError(
                    f"repetition split on non-repetition node #{rep_id}")
            child = tree.children(node)[0]
            if not tree.is_leaf_element(child):
                raise MappingError(
                    "repetition split is limited to leaf elements "
                    f"(node #{rep_id})")
            if count < 1:
                raise MappingError("repetition-split count must be >= 1")
        for dist in self.distributions:
            self._validate_distribution(dist)

    def _validate_distribution(self, dist: UnionDistribution) -> None:
        tree = self.tree
        owners = set()
        if dist.choice_id is not None:
            node = tree.node(dist.choice_id)
            if node.kind != NodeKind.CHOICE:
                raise MappingError(
                    f"union distribution on non-choice node #{dist.choice_id}")
            owners.add(self.owner_of(dist.choice_id))
        for optional_id in dist.optional_ids:
            node = tree.node(optional_id)
            if node.kind != NodeKind.OPTION:
                raise MappingError(
                    f"implicit union on non-option node #{optional_id}")
            owners.add(self.owner_of(optional_id))
        if len(owners) != 1:
            raise MappingError(
                "all nodes of a union distribution must share one owner "
                f"table (owners: {sorted(owners)})")
        owner = next(iter(owners))
        annotation = self.annotation_of(owner)
        if len(self.nodes_with_annotation(annotation)) != 1:
            raise MappingError(
                "union distribution on a type-merged table is not supported; "
                "split the type first")
        if dist.choice_id is not None:
            # Its branches partition the owner only if every instance
            # takes one: ask the plan of the element declaring it, then
            # every inlined element crossed on the way up to the owner.
            holder = tree.nearest_tag_ancestor(dist.choice_id)
            can_lack = tree.plan(holder).choices[dist.choice_id]
            while not can_lack and holder.node_id != owner:
                can_lack = bool(tree.entry(holder).atoms)
                holder = tree.nearest_tag_ancestor(holder)
            if can_lack:
                raise MappingError(
                    f"union distribution on choice #{dist.choice_id}: an "
                    f"instance of <{tree.node(owner).name}> can lack it (it "
                    f"sits under an option or in another choice's branch, or "
                    f"a branch of it can be empty), so its branches do not "
                    f"partition the table")

    def distribution_owner(self, dist: UnionDistribution) -> int:
        """The annotated node whose table the distribution partitions."""
        any_node = next(iter(dist.nodes()))
        return self.owner_of(any_node)
