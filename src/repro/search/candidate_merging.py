"""Candidate merging (paper Section 4.7).

Individual implicit-union candidates optimize single queries; merging a
pair ``c_i, c_j`` on the same table into a candidate over the *union* of
their optional node sets can benefit several queries at once (the
``c_3`` example: partition movies into "has year or avg_rating" vs.
"has neither").

The greedy merger repeatedly merges the pair with the largest estimated
benefit under the paper's heuristic I/O-saving model::

    s(c_i, Q) = ((|R| - sum |R_A|) / sum |R_S(Q)|) * cost(Q)

where |R_A| are the partitions Q accesses and |R_S(Q)| the relations it
references; an exhaustive variant enumerates every subset merge (used by
the Fig. 8 ablation).
"""

from __future__ import annotations

import itertools
from collections import Counter

from ..mapping import (CollectedStats, Mapping, PresenceCondition,
                       UnionDistribution, derive_schema)
from ..mapping.relschema import conditions_hold
from ..translate import resolve_steps
from ..workload import Workload
from ..xpath import XPathQuery
from ..xsd import NodeKind, SchemaTree
from .candidate_selection import _referenced_leaves


class CandidateMerger:
    """Greedy (or exhaustive) merging of implicit-union candidates."""

    def __init__(self, mapping: Mapping, stats: CollectedStats,
                 workload: Workload):
        self.mapping = mapping
        self.tree = mapping.tree
        self.stats = stats
        self.workload = workload

    # ------------------------------------------------------------------
    def merge_greedy(self, candidates: list[UnionDistribution]
                     ) -> list[UnionDistribution]:
        """The paper's O(|C0|^3) greedy pairwise merging."""
        pool = list(dict.fromkeys(candidates))
        while True:
            best = None
            for a, b in itertools.combinations(pool, 2):
                merged = self._mergeable(a, b)
                if merged is None:
                    continue
                benefit = self.total_benefit(merged)
                if benefit <= 0:
                    continue
                if best is None or benefit > best[0]:
                    best = (benefit, a, b, merged)
            if best is None:
                return pool
            _, a, b, merged = best
            pool = [c for c in pool if c not in (a, b)]
            pool.append(merged)

    def merge_exhaustive(self, candidates: list[UnionDistribution]
                         ) -> list[UnionDistribution]:
        """Enumerate all subset merges and keep the best partitioning.

        Exponential in |C0| (the Fig. 8 baseline); candidates grouped by
        owner, each owner's best-benefit subset union is kept together
        with the unmerged remainder.
        """
        pool = list(dict.fromkeys(candidates))
        by_owner: dict[int, list[UnionDistribution]] = {}
        for candidate in pool:
            owner = self.mapping.distribution_owner(candidate)
            by_owner.setdefault(owner, []).append(candidate)
        out: list[UnionDistribution] = []
        for owner, group in by_owner.items():
            best_subset: tuple[UnionDistribution, ...] | None = None
            best_benefit = 0.0
            for size in range(2, len(group) + 1):
                for subset in itertools.combinations(group, size):
                    merged = UnionDistribution(optional_ids=frozenset(
                        itertools.chain.from_iterable(
                            c.optional_ids for c in subset)))
                    benefit = self.total_benefit(merged)
                    if benefit > best_benefit:
                        best_benefit, best_subset = benefit, subset
            if best_subset is None:
                out.extend(group)
            else:
                merged = UnionDistribution(optional_ids=frozenset(
                    itertools.chain.from_iterable(
                        c.optional_ids for c in best_subset)))
                out.append(merged)
                out.extend(c for c in group if c not in best_subset)
        return out

    # ------------------------------------------------------------------
    def _mergeable(self, a: UnionDistribution,
                   b: UnionDistribution) -> UnionDistribution | None:
        """Mergeable: same owner table, neither optional set contains
        the other (paper Section 4.7)."""
        if not (a.is_implicit and b.is_implicit):
            return None
        if self.mapping.distribution_owner(a) != \
                self.mapping.distribution_owner(b):
            return None
        if a.optional_ids <= b.optional_ids or \
                b.optional_ids <= a.optional_ids:
            return None
        return UnionDistribution(
            optional_ids=a.optional_ids | b.optional_ids)

    # ------------------------------------------------------------------
    # The heuristic I/O-saving benefit model
    # ------------------------------------------------------------------
    def total_benefit(self, candidate: UnionDistribution) -> float:
        """The weighted sum of ``s(c, Q)`` over the workload, with every
        query's ``cost(Q)`` taken as 1."""
        total = 0.0
        for weighted in self.workload:
            total += weighted.weight * self.query_benefit(candidate,
                                                          weighted.query)
        return total

    def query_benefit(self, candidate: UnionDistribution,
                      query: XPathQuery) -> float:
        """Fractional I/O saving of the candidate for one query."""
        tree = self.tree
        owner = self.mapping.distribution_owner(candidate)
        owner_node = tree.node(owner)
        contexts = resolve_steps(tree, query.steps)
        relevant = [c for c in contexts
                    if self._region_owner(c) == owner]
        if not relevant:
            return 0.0
        owner_rows = self.stats.instances(owner)
        if owner_rows == 0:
            return 0.0
        has_rows = self._has_partition_rows(owner, candidate.optional_ids)
        none_rows = owner_rows - has_rows
        saving = 0.0
        for context in relevant:
            accessed = self._accessed_rows(context, query, candidate,
                                           owner_rows, has_rows, none_rows)
            if accessed >= owner_rows:
                continue  # accesses both partitions: no benefit
            saving = max(saving, (owner_rows - accessed) / owner_rows)
        return saving

    def _region_owner(self, context) -> int:
        node = context
        if self.tree.is_leaf_element(node):
            parent = self.tree.nearest_tag_ancestor(node)
            if parent is not None:
                node = parent
        return self.mapping.owner_of(node.node_id)

    def _has_partition_rows(self, owner: int,
                            optional_ids: frozenset[int]) -> int:
        has = (PresenceCondition(optional_ids, True),)
        joint = self.stats.joint.get(owner, Counter())
        return sum(freq for signature, freq in joint.items()
                   if conditions_hold(has, signature))

    def _accessed_rows(self, context, query: XPathQuery,
                       candidate: UnionDistribution, owner_rows: int,
                       has_rows: int, none_rows: int) -> int:
        tree = self.tree
        projections, predicates = _referenced_leaves(tree, query, context)

        def under_candidate(leaf) -> bool:
            return tree.entry(leaf).option_id in candidate.optional_ids

        if predicates and all(under_candidate(p) for p in predicates):
            return has_rows  # presence forced by the selection
        if not predicates and projections and \
                all(under_candidate(p) for p in projections):
            return has_rows
        return owner_rows  # touches common columns: both partitions
