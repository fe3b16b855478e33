"""Workload-based candidate selection (paper Section 4.5).

Analyzes each XPath query's shape against the schema tree and keeps only
the transformations that can benefit it:

1. subsumed transformations are never selected (they are covered by
   vertical partitioning / covering indexes);
2. a union distribution (explicit or implicit) is selected only when the
   query would access at most half of the partitions it generates;
3. a repetition split is selected for a referenced set-valued leaf when
   the cardinality distribution is skewed to the low end (Section 4.6's
   k-selection via :meth:`CollectedStats.suggest_split_count`);
4. a type split is selected when a query pins one occurrence of a shared
   type; a (deep) type merge when one query spans several equivalent
   occurrences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MappingError
from ..mapping import (CollectedStats, Mapping, RepetitionSplit,
                       Transformation, TypeMerge, TypeSplit, UnionDistribute,
                       UnionDistribution)
from ..obs import get_tracer
from ..resilience import note_suppressed
from ..translate import resolve_steps
from ..workload import Workload
from ..xpath import XPathQuery
from ..xsd import SchemaNode, SchemaTree

#: Section 4.6: a repetition split gets the smallest k <= CMAX columns
#: that hold COVERAGE of the repetition's instances.
CMAX = 5
COVERAGE = 0.80


@dataclass
class CandidateSet:
    """Selected candidates, partitioned as the Greedy algorithm uses them."""

    splits: list[Transformation] = field(default_factory=list)
    merges: list[Transformation] = field(default_factory=list)
    implicit_unions: list[UnionDistribution] = field(default_factory=list)

    def all(self) -> list[Transformation]:
        return self.splits + self.merges


def _referenced_leaves(tree: SchemaTree, query: XPathQuery,
                       context: SchemaNode) -> tuple[list[SchemaNode],
                                                     list[SchemaNode]]:
    """(projection leaves, predicate leaves) under one context node."""
    projections: list[SchemaNode] = []
    predicates: list[SchemaNode] = []
    for path in query.projections:
        projections.extend(
            n for n in resolve_steps(tree, path, start=context)
            if tree.is_leaf_element(n))
    if not query.projections and tree.is_leaf_element(context):
        projections.append(context)
    if query.predicate is not None:
        predicates.extend(
            n for n in resolve_steps(tree, query.predicate.path,
                                     start=context)
            if tree.is_leaf_element(n))
    return projections, predicates


class CandidateSelector:
    """Runs the Section 4.5 rules over a workload."""

    def __init__(self, base_mapping: Mapping, stats: CollectedStats):
        self.mapping = base_mapping
        self.tree = base_mapping.tree
        self.stats = stats

    # ------------------------------------------------------------------
    def select(self, workload: Workload) -> CandidateSet:
        out = CandidateSet()
        seen: set = set()

        def add_split(transformation: Transformation) -> None:
            key = str(transformation)
            if key not in seen:
                seen.add(key)
                out.splits.append(transformation)
                if isinstance(transformation, UnionDistribute) and \
                        transformation.distribution.is_implicit:
                    out.implicit_unions.append(transformation.distribution)

        def add_merge(transformation: Transformation) -> None:
            key = str(transformation)
            if key not in seen:
                seen.add(key)
                out.merges.append(transformation)

        for weighted in workload:
            self._candidates_for_query(weighted.query, add_split, add_merge)
        return out

    # ------------------------------------------------------------------
    def _candidates_for_query(self, query: XPathQuery, add_split,
                              add_merge) -> None:
        tree = self.tree
        contexts = resolve_steps(tree, query.steps)
        for context in contexts:
            projections, predicates = _referenced_leaves(tree, query, context)
            referenced = projections + predicates
            self._union_candidates(projections, predicates, add_split)
            self._repetition_candidates(referenced, add_split)
            self._type_split_candidates(context, referenced, add_split)
        self._type_merge_candidates(contexts, add_merge)

    # -- rule 2: union distribution --------------------------------------
    def _union_candidates(self, projections: list[SchemaNode],
                          predicates: list[SchemaNode], add_split) -> None:
        """Decided by the innermost CHOICE branch and OPTION between
        each referenced leaf and its parent element."""
        tree = self.tree
        referenced = projections + predicates
        if not referenced:
            return
        # Explicit choices: access at most half of the branches.
        by_choice: dict[int, set[int]] = {}
        for leaf in referenced:
            located = tree.entry(leaf).choice_branch
            if located is not None:
                choice_id, branch = located
                by_choice.setdefault(choice_id, set()).add(branch)
        for choice_id, branches in by_choice.items():
            n_branches = len(tree.node(choice_id).child_ids)
            if 0 < len(branches) <= n_branches / 2:
                add_split(UnionDistribute(
                    UnionDistribution(choice_id=choice_id)))
        # Implicit unions: the query must stay inside the has-partition —
        # either the predicate forces presence of the option, or every
        # referenced leaf sits under it.
        predicate_options = [tree.entry(leaf).option_id for leaf in predicates]
        for option in predicate_options:
            if option is not None:
                add_split(UnionDistribute(UnionDistribution(
                    optional_ids=frozenset({option}))))
        if set(predicate_options) <= {None}:
            proj_options = [tree.entry(leaf).option_id for leaf in projections]
            if proj_options and None not in proj_options:
                for option in sorted(set(proj_options)):
                    add_split(UnionDistribute(UnionDistribution(
                        optional_ids=frozenset({option}))))

    # -- rule 3: repetition split ----------------------------------------
    def _repetition_candidates(self, referenced: list[SchemaNode],
                               add_split) -> None:
        tree = self.tree
        for leaf in referenced:
            rep = tree.enclosing_repetition(leaf)
            if rep is None or not tree.is_leaf_element(leaf):
                continue
            if rep.node_id in self.mapping.split_map:
                continue
            k = self.stats.suggest_split_count(rep.node_id, CMAX, COVERAGE)
            if k is not None:
                add_split(RepetitionSplit(rep.node_id, k))

    # -- rule 4a: type split ----------------------------------------------
    def _type_split_candidates(self, context: SchemaNode,
                               referenced: list[SchemaNode],
                               add_split) -> None:
        for node in [context] + referenced:
            annotation = self.mapping.annotation_of(node.node_id)
            if annotation is None:
                continue
            sharers = self.mapping.nodes_with_annotation(annotation)
            if len(sharers) < 2:
                continue
            add_split(TypeSplit(node.node_id, f"{annotation}_s{node.node_id}"))

    # -- rule 4b: deep type merge ------------------------------------------
    def _type_merge_candidates(self, contexts: list[SchemaNode],
                               add_merge) -> None:
        tree = self.tree
        by_signature: dict[tuple, list[SchemaNode]] = {}
        for node in contexts:
            by_signature.setdefault(
                tree.structural_signature(node), []).append(node)
        for nodes in by_signature.values():
            if len(nodes) < 2:
                continue
            annotations = {self.mapping.annotation_of(n.node_id)
                           for n in nodes}
            if len(annotations) == 1 and None not in annotations:
                continue  # already merged
            name = nodes[0].name or "merged"
            add_merge(TypeMerge(tuple(n.node_id for n in nodes),
                                f"{name}_m"))


def apply_splits(mapping: Mapping,
                 splits: list[Transformation]) -> tuple[Mapping, list[Transformation]]:
    """Apply all split candidates to build M0 (Fig. 3 line 2).

    Type splits go first (they can unlock distributions), then union
    distributions, then repetition splits. Candidates that fail to
    validate in combination are dropped. Returns (M0, applied)."""
    def order(t: Transformation) -> int:
        if isinstance(t, TypeSplit):
            return 0
        if isinstance(t, UnionDistribute):
            return 1
        return 2

    applied: list[Transformation] = []
    current = mapping
    for transformation in sorted(splits, key=order):
        try:
            current = transformation.validate_applied(current)
        except MappingError as exc:
            note_suppressed(exc, "selection.apply_splits", get_tracer())
            continue
        applied.append(transformation)
    return current, applied
