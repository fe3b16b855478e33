"""Random workload generation (paper Section 5.1.3).

Workloads vary two parameters:

* **selectivity** of the selection condition — "low" (0.01–0.1, i.e.
  selective equality predicates) or "high" (0.5–1, i.e. weak range
  predicates or none), and
* **number of projections** — "low" (1–4) or "high" (5–20, capped by the
  context element's leaf count).

Names follow the paper: ``HP-LS-20`` = high projections, low
selectivity, 20 queries. Predicate literals are drawn from the collected
statistics so that actual selectivities land in the requested band.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import WorkloadError
from ..mapping import CollectedStats
from ..xpath import Axis, CompareOp, Predicate, Step, XPathQuery
from ..xsd import NodeKind, SchemaNode, SchemaTree
from .model import WeightedQuery, Workload

LOW_SELECTIVITY = (0.01, 0.10)
HIGH_SELECTIVITY = (0.50, 1.00)
LOW_PROJECTIONS = (1, 4)
HIGH_PROJECTIONS = (5, 20)


@dataclass
class _ContextInfo:
    node: SchemaNode
    path: tuple[str, ...]
    leaves: list[SchemaNode]
    instances: int


def _context_elements(tree: SchemaTree,
                      stats: CollectedStats) -> list[_ContextInfo]:
    """TAG nodes that make useful query contexts (several leaves)."""
    out = []
    for node in tree.iter_nodes():
        if node.kind != NodeKind.TAG or tree.is_leaf_element(node):
            continue
        leaves = _region_leaves(tree, node)
        if len(leaves) >= 2:
            out.append(_ContextInfo(
                node=node,
                path=tree.tag_path(node),
                leaves=leaves,
                instances=stats.instances(node.node_id)))
    return [c for c in out if c.instances > 0]


def _region_leaves(tree: SchemaTree, node: SchemaNode) -> list[SchemaNode]:
    """Distinct-name leaf elements among the node's child elements (one
    level of element structure — the paper's queries project direct
    children); a name declared twice counts at its first declaration."""
    return [entry.node for entry in tree.plan(node).dispatch.values()
            if tree.is_leaf_element(entry.node)]


class WorkloadGenerator:
    """Generates random workloads over one schema + statistics."""

    def __init__(self, tree: SchemaTree, stats: CollectedStats,
                 seed: int = 0):
        self.tree = tree
        self.stats = stats
        self.rng = random.Random(seed)
        self.contexts = _context_elements(tree, stats)
        if not self.contexts:
            raise WorkloadError("schema has no usable context elements")

    # ------------------------------------------------------------------
    def generate(self, n_queries: int,
                 selectivity: tuple[float, float] = LOW_SELECTIVITY,
                 projections: tuple[int, int] = LOW_PROJECTIONS
                 ) -> Workload:
        workload = Workload(self._name(n_queries, selectivity, projections))
        for _ in range(n_queries):
            workload.queries.append(
                WeightedQuery(self._one_query(selectivity, projections)))
        return workload

    @staticmethod
    def _name(n: int, selectivity, projections) -> str:
        sel = "LS" if selectivity[1] <= 0.25 else "HS"
        proj = "HP" if projections[1] >= 5 else "LP"
        return f"{proj}-{sel}-{n}"

    def standard_suite(self, n_queries: int) -> list[Workload]:
        """The four LP/HP x LS/HS workloads of Section 5.1.3."""
        out = []
        for projections in (LOW_PROJECTIONS, HIGH_PROJECTIONS):
            for selectivity in (LOW_SELECTIVITY, HIGH_SELECTIVITY):
                out.append(self.generate(n_queries, selectivity, projections))
        return out

    # ------------------------------------------------------------------
    def _one_query(self, selectivity, projections) -> XPathQuery:
        rng = self.rng
        context = rng.choices(self.contexts,
                              weights=[max(c.instances, 1)
                                       for c in self.contexts], k=1)[0]
        steps = tuple(Step(Axis.CHILD, name) for name in context.path)
        n_proj = rng.randint(projections[0],
                             min(projections[1], len(context.leaves)))
        chosen = rng.sample(context.leaves, n_proj)
        projection_paths = tuple(
            (Step(Axis.CHILD, leaf.name),) for leaf in chosen)
        predicate = self._predicate(context, selectivity)
        return XPathQuery(
            steps=steps,
            predicate=predicate,
            predicate_step=(len(steps) - 1) if predicate else None,
            projections=projection_paths,
        )

    def _predicate(self, context: _ContextInfo,
                   selectivity: tuple[float, float]) -> Predicate | None:
        rng = self.rng
        lo, hi = selectivity
        target = rng.uniform(lo, hi)
        if target >= 0.99:
            return None  # no selection: selectivity 1
        candidates = []
        for leaf in context.leaves:
            stats = self.stats.leaf_stats.get(leaf.node_id)
            if stats is None or stats.n_distinct == 0:
                continue
            eq_sel = stats.non_null_fraction / stats.n_distinct
            candidates.append((leaf, stats, eq_sel))
        if not candidates:
            return None
        # Prefer an equality predicate whose selectivity is closest to
        # the target — but only when it lands near the band (equality on
        # a low-cardinality column would overshoot a high-selectivity
        # target). Fall back to a range predicate on a numeric leaf.
        leaf, stats, eq_sel = min(
            candidates, key=lambda c: abs(c[2] - target))
        if target / 4 <= eq_sel <= target * 4:
            value = self._pick_value(stats)
            return Predicate(path=(Step(Axis.CHILD, leaf.name),),
                             op=CompareOp.EQ, value=str(value))
        numeric = [c for c in candidates
                   if isinstance(c[1].min_value, (int, float))]
        if numeric:
            leaf, stats, _ = self.rng.choice(numeric)
            boundaries = stats.boundaries
            if boundaries:
                # >= boundary at quantile (1 - target).
                index = min(len(boundaries) - 1,
                            int(len(boundaries) * (1.0 - target)))
                value = boundaries[index]
                return Predicate(path=(Step(Axis.CHILD, leaf.name),),
                                 op=CompareOp.GE, value=str(value))
        return None

    def _pick_value(self, stats):
        if stats.boundaries:
            return self.rng.choice(stats.boundaries)
        return stats.min_value
