"""Canonical starting mappings.

* :func:`hybrid_inlining` — the mapping of Shanmugasundaram et al. [20]
  used as the paper's normalization baseline: inline every element whose
  in-degree is one; only the root and set-valued elements get their own
  tables. This is also the fully-inlined schema ``T0`` of Theorem 1.
* :func:`shared_inlining` — keep all annotations authored in the schema
  document (shared types stay separate tables).
* :func:`fully_split` — every TAG node outlined into its own table with
  a unique annotation (maximal type split); the finest-granularity
  mapping, over which statistics are conceptually collected.
"""

from __future__ import annotations

from ..xsd import NodeKind, SchemaTree
from .model import Mapping


def _ensure_required(tree: SchemaTree,
                     annotations: dict[int, str]) -> dict[int, str]:
    """Make sure root and under-repetition elements are annotated."""
    used = set(annotations.values())
    for node in tree.iter_nodes():
        if node.kind != NodeKind.TAG or not tree.must_annotate(node):
            continue
        if node.node_id in annotations:
            continue
        name = node.annotation or node.name
        while name in used:
            name += "_t"
        annotations[node.node_id] = name
        used.add(name)
    return annotations


def hybrid_inlining(tree: SchemaTree) -> Mapping:
    """Annotate only what must be annotated; inline everything else.

    Schema-authored annotations are honoured for the required nodes (so
    shared types such as DBLP's ``author`` keep one shared table, as in
    hybrid inlining), and dropped everywhere else.
    """
    annotations: dict[int, str] = {}
    for node in tree.iter_nodes():
        if node.kind == NodeKind.TAG and tree.must_annotate(node) \
                and node.annotation:
            annotations[node.node_id] = node.annotation
    _ensure_required(tree, annotations)
    mapping = Mapping(tree=tree,
                      annotations=tuple(sorted(annotations.items())))
    mapping.validate()
    return mapping


# The fully-inlined schema T0 of Theorem 1 coincides with hybrid inlining.
fully_inlined = hybrid_inlining


def shared_inlining(tree: SchemaTree) -> Mapping:
    """Keep every annotation authored in the schema document."""
    annotations: dict[int, str] = {}
    for node in tree.iter_nodes():
        if node.kind == NodeKind.TAG and node.annotation:
            annotations[node.node_id] = node.annotation
    _ensure_required(tree, annotations)
    mapping = Mapping(tree=tree,
                      annotations=tuple(sorted(annotations.items())))
    mapping.validate()
    return mapping


def fully_split(tree: SchemaTree) -> Mapping:
    """Every TAG node in its own table, with a unique annotation."""
    annotations: dict[int, str] = {}
    used: set[str] = set()
    for node in tree.iter_nodes():
        if node.kind != NodeKind.TAG:
            continue
        name = node.annotation or node.name
        while name in used:
            name += "_t"
        annotations[node.node_id] = name
        used.add(name)
    mapping = Mapping(tree=tree,
                      annotations=tuple(sorted(annotations.items())))
    mapping.validate()
    return mapping


#: The preset table: every place that offers "a mapping by name" (CLI
#: ``--mapping``/``--design``, :func:`repro.search.design_for`) reads it.
PRESETS = {
    "hybrid": hybrid_inlining,
    "shared": shared_inlining,
    "fully-split": fully_split,
}
