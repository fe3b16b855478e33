"""Cost derivation (paper Section 4.8).

When a transformation ``c`` turns mapping ``M`` into ``M'``, many
workload queries keep the same object set ``I(Q, M') = I(Q, M)`` and
hence the same plan and cost. The rules deciding this:

* **Irrelevant relation rule** — ``c`` changes no relation in
  ``RS(Q)``.
* **Repetition split rule** — the plan under ``M`` answers ``Q`` from a
  covering index of the affected relation (never the base relation) and
  ``Q``'s SQL does not reference the split element.
* **Union / type rule** — for a union distribution/factorization or type
  split/merge on ``R in RS(Q)``: either ``Q`` refers to all partitions
  and none participates in a join, or a repetition split already applies
  on ``R`` (so the relation is nearly empty).

Queries that pass reuse their previous cost; only the rest are handed to
the physical design tool (see
:meth:`repro.search.evaluator.MappingEvaluator.evaluate_partial_many`).
"""

from __future__ import annotations

from ..errors import MappingError
from ..mapping import (Inline, Outline, RepetitionMerge, RepetitionSplit,
                       Transformation, TypeMerge, TypeSplit, UnionDistribute,
                       UnionFactorize)
from ..obs import get_tracer
from ..resilience import note_suppressed
from ..sqlast import Query
from .evaluator import EvaluatedMapping


def affected_annotations(transformation: Transformation,
                         evaluated: EvaluatedMapping) -> set[str]:
    """Table-group annotations whose relations the transformation changes."""
    mapping = evaluated.mapping
    tree = mapping.tree
    out: set[str] = set()

    def owner_annotation(node_id: int) -> str | None:
        try:
            owner = mapping.owner_of(node_id)
        except MappingError as exc:
            note_suppressed(exc, "derivation.owner_of", get_tracer())
            return None
        return mapping.annotation_of(owner)

    if isinstance(transformation, TypeSplit):
        out.add(mapping.annotation_of(transformation.node_id) or "")
        out.add(transformation.new_annotation)
    elif isinstance(transformation, TypeMerge):
        out.add(transformation.annotation)
        for node_id in transformation.node_ids:
            annotation = mapping.annotation_of(node_id) or \
                owner_annotation(node_id)
            if annotation:
                out.add(annotation)
    elif isinstance(transformation, (UnionDistribute, UnionFactorize)):
        owner = mapping.distribution_owner(transformation.distribution)
        annotation = mapping.annotation_of(owner)
        if annotation:
            out.add(annotation)
    elif isinstance(transformation, (RepetitionSplit, RepetitionMerge)):
        rep = tree.node(transformation.rep_node_id)
        leaf = tree.children(rep)[0]
        leaf_annotation = mapping.annotation_of(leaf.node_id) or \
            owner_annotation(leaf.node_id)
        if leaf_annotation:
            out.add(leaf_annotation)
        parent = tree.nearest_tag_ancestor(rep)
        if parent is not None:
            annotation = owner_annotation(parent.node_id)
            if annotation:
                out.add(annotation)
    elif isinstance(transformation, (Inline, Outline)):
        annotation = owner_annotation(transformation.node_id)
        if annotation:
            out.add(annotation)
    out.discard("")
    return out


def _affected_tables(annotations: set[str],
                     evaluated: EvaluatedMapping) -> set[str]:
    tables: set[str] = set()
    for annotation in annotations:
        group = evaluated.schema.groups.get(annotation)
        if group is not None:
            tables.update(group.table_names)
    return tables


def _split_element_columns(transformation, evaluated: EvaluatedMapping
                           ) -> set[str]:
    """Column names carrying the repetition-split element's values."""
    tree = evaluated.mapping.tree
    rep = tree.node(transformation.rep_node_id)
    leaf = tree.children(rep)[0]
    try:
        storage = evaluated.schema.storage_of(leaf.node_id)
    except MappingError as exc:
        note_suppressed(exc, "derivation.storage_of", get_tracer())
        return {leaf.name}
    out = set(storage.split_columns)
    if storage.column:
        out.add(storage.column)
    if storage.value_column:
        out.add(storage.value_column)
    out.add(leaf.name)
    return out


def _sql_texts(evaluated: EvaluatedMapping) -> list[str]:
    """Rendered SQL per workload query, memoized on the evaluation."""
    cached = getattr(evaluated, "_sql_texts", None)
    if cached is None:
        cached = [str(sql) for sql, _ in evaluated.sql_queries]
        evaluated._sql_texts = cached  # type: ignore[attr-defined]
    return cached


def _referenced_tables(evaluated: EvaluatedMapping) -> list[frozenset[str]]:
    """Referenced base tables per workload query, memoized."""
    cached = getattr(evaluated, "_referenced_tables", None)
    if cached is None:
        cached = [sql.referenced_tables for sql, _ in evaluated.sql_queries]
        evaluated._referenced_tables = cached  # type: ignore[attr-defined]
    return cached


def _union_rule_holds(sql: Query, affected_tables: set[str],
                      evaluated: EvaluatedMapping,
                      annotations: set[str]) -> bool:
    # Case 2: a repetition split already applies on the affected region.
    mapping = evaluated.mapping
    tree = mapping.tree
    for rep_id in mapping.split_map:
        parent = tree.nearest_tag_ancestor(tree.node(rep_id))
        if parent is None:
            continue
        owner = mapping.owner_of(parent.node_id)
        if mapping.annotation_of(owner) in annotations:
            return True
    # Case 1: every SELECT touching an affected table is join-free.
    touches_any = False
    for select in sql.selects:
        touched = [t for t in select.from_tables
                   if t.table in affected_tables]
        if not touched:
            continue
        touches_any = True
        if len(select.from_tables) > 1:
            return False
        where_text = str(select.where) if select.where is not None else ""
        if "EXISTS" in where_text:
            return False
    return touches_any


class CostDerivation:
    """Applies the Section 4.8 rules to one (base mapping, candidate)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled

    def reusable_costs(self, transformation: Transformation,
                       evaluated: EvaluatedMapping) -> dict[int, float]:
        """Workload indices whose cost carries over, with those costs."""
        if not self.enabled:
            return {}
        annotations = affected_annotations(transformation, evaluated)
        affected = _affected_tables(annotations, evaluated)
        reuse: dict[int, float] = {}
        referenced_per_query = _referenced_tables(evaluated)
        texts = None
        split_columns = None
        for i, report in enumerate(evaluated.tuning.reports):
            sql = evaluated.sql_queries[i][0]
            if not (referenced_per_query[i] & affected):
                # Irrelevant relation rule.
                reuse[i] = report.cost
                continue
            if isinstance(transformation, (RepetitionSplit, RepetitionMerge)):
                if split_columns is None:
                    split_columns = _split_element_columns(transformation,
                                                           evaluated)
                uses_base = bool(report.objects_used & affected)
                if texts is None:
                    texts = _sql_texts(evaluated)
                references = any(column in texts[i]
                                 for column in split_columns)
                if not uses_base and not references:
                    # Repetition split rule: answered from a covering
                    # index untouched by the split.
                    reuse[i] = report.cost
                    continue
            if isinstance(transformation, (UnionDistribute, UnionFactorize,
                                           TypeSplit, TypeMerge)):
                if _union_rule_holds(sql, affected, evaluated, annotations):
                    reuse[i] = report.cost
        return reuse
