"""The schema transformations of paper Section 2.1.

Eight transformation families over mappings:

===================  ==========  ===========
transformation       subsumed?   merge/split
===================  ==========  ===========
outlining            yes         split
inlining             yes         merge
type split           no          split
type merge           no          merge
union distribution   no          split
union factorization  no          merge
repetition split     no          split
repetition merge     no          merge
associativity        yes         (neither)
commutativity        yes         (neither)
===================  ==========  ===========

"Subsumed" is the paper's Section 3.1 classification: applied alone, the
transformation's relational effect is a vertical partitioning of the
fully-inlined schema, so physical design (vertical partitioning /
covering indexes) already covers it. ``tests/test_subsumption.py``
verifies Theorem 1 against this implementation.

Associativity and commutativity only reorder/regroup columns of a table;
in this engine column order is cost-neutral, so their ``apply`` is the
identity on the derived schema. They are still enumerated (for the
Table 1 transformation counts and for the Naive-Greedy baseline, which
wastes tuner calls on them exactly as the paper describes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from ..errors import MappingError, TransformError
from ..xsd import NodeKind, SchemaTree
from .model import Mapping, UnionDistribution


@dataclass(frozen=True)
class Transformation:
    """Base class; concrete subclasses implement ``apply``."""

    @property
    def subsumed(self) -> bool:
        raise NotImplementedError

    @property
    def is_merge(self) -> bool:
        """Merge-type candidates are applied during the greedy rounds;
        split-type candidates are applied up-front to build M0."""
        raise NotImplementedError

    def apply(self, mapping: Mapping) -> Mapping:
        raise NotImplementedError

    def validate_applied(self, mapping: Mapping) -> Mapping:
        applied = self.apply(mapping)
        applied.validate()
        return applied


# ----------------------------------------------------------------------
# Subsumed transformations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Outline(Transformation):
    node_id: int
    annotation: str

    subsumed = True
    is_merge = False

    def apply(self, mapping: Mapping) -> Mapping:
        if mapping.annotation_of(self.node_id) is not None:
            raise TransformError(f"node #{self.node_id} is already outlined")
        return mapping.with_annotation(self.node_id, self.annotation)

    def __str__(self) -> str:
        return f"outline(#{self.node_id} as {self.annotation})"


@dataclass(frozen=True)
class Inline(Transformation):
    node_id: int

    subsumed = True
    is_merge = True

    def apply(self, mapping: Mapping) -> Mapping:
        tree = mapping.tree
        if mapping.annotation_of(self.node_id) is None:
            raise TransformError(f"node #{self.node_id} is not outlined")
        if tree.must_annotate(self.node_id):
            raise TransformError(
                f"node #{self.node_id} must stay annotated")
        return mapping.without_annotation(self.node_id)

    def __str__(self) -> str:
        return f"inline(#{self.node_id})"


@dataclass(frozen=True)
class Commutativity(Transformation):
    """Swap the order of two sibling particles (cost-neutral here)."""

    owner_id: int

    subsumed = True
    is_merge = False

    def apply(self, mapping: Mapping) -> Mapping:
        return mapping

    def __str__(self) -> str:
        return f"commute(#{self.owner_id})"


@dataclass(frozen=True)
class Associativity(Transformation):
    """Regroup sibling particles (cost-neutral here)."""

    owner_id: int

    subsumed = True
    is_merge = False

    def apply(self, mapping: Mapping) -> Mapping:
        return mapping

    def __str__(self) -> str:
        return f"associate(#{self.owner_id})"


# ----------------------------------------------------------------------
# Non-subsumed transformations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TypeSplit(Transformation):
    """Rename one node's shared annotation to a fresh name."""

    node_id: int
    new_annotation: str

    subsumed = False
    is_merge = False

    def apply(self, mapping: Mapping) -> Mapping:
        current = mapping.annotation_of(self.node_id)
        if current is None:
            raise TransformError(f"node #{self.node_id} is not annotated")
        if len(mapping.nodes_with_annotation(current)) < 2:
            raise TransformError(
                f"annotation {current!r} is not shared; nothing to split")
        if self.new_annotation in dict(mapping.annotations).values():
            raise TransformError(
                f"annotation {self.new_annotation!r} already in use")
        return mapping.with_annotation(self.node_id, self.new_annotation)

    def __str__(self) -> str:
        return f"type_split(#{self.node_id} -> {self.new_annotation})"


@dataclass(frozen=True)
class TypeMerge(Transformation):
    """Give structurally equivalent nodes one shared annotation.

    This is the *deep merge* form (paper Section 4.3): nodes need not be
    currently annotated — un-annotated equivalent nodes are outlined
    into the shared table as part of the merge, which is exactly the
    inline-then-merge combination of the two-titles example.
    """

    node_ids: tuple[int, ...]
    annotation: str

    subsumed = False
    is_merge = True

    def apply(self, mapping: Mapping) -> Mapping:
        if len(self.node_ids) < 2:
            raise TransformError("type merge needs at least two nodes")
        tree = mapping.tree
        signatures = {tree.structural_signature(nid) for nid in self.node_ids}
        if len(signatures) > 1:
            raise TransformError(
                f"nodes {self.node_ids} are not logically equivalent")
        out = mapping
        for node_id in self.node_ids:
            out = out.with_annotation(node_id, self.annotation)
        return out

    def __str__(self) -> str:
        ids = ",".join(f"#{n}" for n in self.node_ids)
        return f"type_merge({ids} as {self.annotation})"


@dataclass(frozen=True)
class UnionDistribute(Transformation):
    distribution: UnionDistribution

    subsumed = False
    is_merge = False

    def apply(self, mapping: Mapping) -> Mapping:
        if self.distribution in mapping.distributions:
            raise TransformError("distribution already applied")
        return mapping.with_distribution(self.distribution)

    def __str__(self) -> str:
        d = self.distribution
        if d.choice_id is not None:
            return f"union_distribute(choice #{d.choice_id})"
        ids = ",".join(f"#{n}" for n in sorted(d.optional_ids))
        return f"union_distribute(implicit {ids})"


@dataclass(frozen=True)
class UnionFactorize(Transformation):
    distribution: UnionDistribution

    subsumed = False
    is_merge = True

    def apply(self, mapping: Mapping) -> Mapping:
        if self.distribution not in mapping.distributions:
            raise TransformError("distribution is not applied")
        return mapping.without_distribution(self.distribution)

    def __str__(self) -> str:
        d = self.distribution
        if d.choice_id is not None:
            return f"union_factorize(choice #{d.choice_id})"
        ids = ",".join(f"#{n}" for n in sorted(d.optional_ids))
        return f"union_factorize(implicit {ids})"


@dataclass(frozen=True)
class RepetitionSplit(Transformation):
    rep_node_id: int
    count: int

    subsumed = False
    is_merge = False

    def apply(self, mapping: Mapping) -> Mapping:
        if self.rep_node_id in mapping.split_map:
            raise TransformError(
                f"repetition #{self.rep_node_id} is already split")
        return mapping.with_split(self.rep_node_id, self.count)

    def __str__(self) -> str:
        return f"repetition_split(#{self.rep_node_id}, k={self.count})"


@dataclass(frozen=True)
class RepetitionMerge(Transformation):
    rep_node_id: int

    subsumed = False
    is_merge = True

    def apply(self, mapping: Mapping) -> Mapping:
        if self.rep_node_id not in mapping.split_map:
            raise TransformError(
                f"repetition #{self.rep_node_id} is not split")
        return mapping.without_split(self.rep_node_id)

    def __str__(self) -> str:
        return f"repetition_merge(#{self.rep_node_id})"


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------


#: The k of every repetition split the unpruned enumeration proposes.
DEFAULT_SPLIT_COUNT = 5


def enumerate_transformations(mapping: Mapping,
                              include_subsumed: bool = True,
                              default_split_count: int = DEFAULT_SPLIT_COUNT
                              ) -> list[Transformation]:
    """All transformations applicable to the mapping (validated).

    This is the space the Naive-Greedy baseline explores each round; the
    paper's Greedy restricts itself to the non-subsumed candidates
    selected from the workload instead.
    """
    out: list[Transformation] = []
    for transformation in _generate(mapping, include_subsumed,
                                    default_split_count):
        try:
            transformation.validate_applied(mapping)
        except (TransformError, MappingError):
            continue
        out.append(transformation)
    return out


def _generate(mapping: Mapping, include_subsumed: bool,
              default_split_count: int) -> Iterator[Transformation]:
    tree = mapping.tree
    annotation_map = mapping.annotation_map
    used = set(annotation_map.values())

    if include_subsumed:
        for node in tree.iter_nodes():
            if node.kind != NodeKind.TAG:
                continue
            if node.node_id not in annotation_map:
                name = node.name
                while name in used:
                    name += "_o"
                yield Outline(node.node_id, name)
            elif not tree.must_annotate(node):
                yield Inline(node.node_id)
        for node in tree.iter_nodes():
            if node.kind != NodeKind.TAG:
                continue
            inline_children = [c for c in tree.children(node)
                               if c.kind != NodeKind.SIMPLE]
            if len(inline_children) >= 2:
                yield Commutativity(node.node_id)
            if len(inline_children) >= 3:
                yield Associativity(node.node_id)

    # Type split: any shared annotation.
    for annotation in sorted(set(annotation_map.values())):
        nodes = mapping.nodes_with_annotation(annotation)
        if len(nodes) < 2:
            continue
        for node_id in nodes:
            name = f"{annotation}_s{node_id}"
            yield TypeSplit(node_id, name)

    # Type merge (deep): pairs of equivalent TAG nodes not already merged.
    by_signature: dict[tuple, list[int]] = {}
    for node in tree.iter_nodes():
        if node.kind == NodeKind.TAG:
            by_signature.setdefault(
                tree.structural_signature(node), []).append(node.node_id)
    for signature, nodes in by_signature.items():
        if len(nodes) < 2:
            continue
        for a, b in itertools.combinations(nodes, 2):
            if annotation_map.get(a) is not None and \
                    annotation_map.get(a) == annotation_map.get(b):
                continue  # already merged
            base = tree.node(a).name or "merged"
            name = annotation_map.get(a) or annotation_map.get(b) or base
            yield TypeMerge((a, b), name)

    # Union distribution / factorization.
    for node in tree.iter_nodes():
        if node.kind == NodeKind.CHOICE:
            dist = UnionDistribution(choice_id=node.node_id)
            if dist not in mapping.distributions:
                yield UnionDistribute(dist)
        elif node.kind == NodeKind.OPTION:
            dist = UnionDistribution(
                optional_ids=frozenset({node.node_id}))
            if dist not in mapping.distributions:
                yield UnionDistribute(dist)
    for dist in mapping.distributions:
        yield UnionFactorize(dist)

    # Repetition split / merge (leaf repetitions only).
    for node in tree.iter_nodes():
        if node.kind != NodeKind.REPETITION:
            continue
        child = tree.children(node)[0]
        if not tree.is_leaf_element(child):
            continue
        if node.node_id in mapping.split_map:
            yield RepetitionMerge(node.node_id)
        else:
            yield RepetitionSplit(node.node_id, default_split_count)


def count_transformations(mapping: Mapping) -> tuple[int, int]:
    """(total, non-subsumed) applicable transformation counts (Table 1)."""
    transformations = enumerate_transformations(mapping)
    non_subsumed = sum(1 for t in transformations if not t.subsumed)
    return len(transformations), non_subsumed
