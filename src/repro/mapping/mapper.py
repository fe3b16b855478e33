"""Derive the relational schema from a mapping (paper Section 2).

Rules implemented:

1. every annotated node maps to a table with ``ID`` (primary key) and
   ``PID`` (foreign key to the parent region's table);
2. every leaf descendant reached without crossing another annotated node
   maps to a column of that table;
3. nodes sharing an annotation map to the same table (type merge);
4. a repetition-split count ``k`` on ``E*`` adds columns ``E_1 .. E_k``
   to the owner and keeps the overflow in ``E``'s own table;
5. a union distribution partitions the owner's table horizontally; each
   partition drops the columns that are statically absent under its
   condition (the "choice group semantics" of Section 3.2).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from ..engine import SQLType
from ..errors import MappingError
from ..xsd import Atom, AttributePlan, ElementPlan, NodeKind, SchemaNode
from .model import Mapping, UnionDistribution
from .relschema import (BranchCondition, ColumnSpec, ID_COLUMN, LeafStorage,
                        MappedSchema, PartitionCondition, PartitionSpec,
                        PID_COLUMN, PresenceCondition, TableGroup)


def derive_schema(mapping: Mapping) -> MappedSchema:
    """Map a validated :class:`Mapping` to its relational schema."""
    mapping.validate()
    return _Mapper(mapping).run()


class _Slot(NamedTuple):
    """One value position of an owner's inline region, in column order."""

    node: SchemaNode            # the leaf TAG or ATTRIBUTE holding the value
    name: str                   # proposed column name
    sql_type: SQLType
    nullable: bool
    occurrence: int | None      # 1-based, for a repetition-split column
    atoms: frozenset[Atom]      # OPTION / CHOICE crossed since the owner


def _statically_absent(features: frozenset[Atom],
                       conditions: tuple[PartitionCondition, ...]) -> bool:
    """No instance of the partition holds a value that crossed
    ``features``: it sits in another branch of a distributed choice, or
    under an option the partition's instances lack."""
    for condition in conditions:
        if isinstance(condition, BranchCondition):
            if any(atom[0] == "choice" and atom[1] == condition.choice_id
                   and atom[2] != condition.branch_index for atom in features):
                return True
        elif not condition.present and any(
                ("opt", optional_id) in features
                for optional_id in condition.optional_ids):
            return True
    return False


class _Mapper:
    def __init__(self, mapping: Mapping):
        self.mapping = mapping
        self.tree = mapping.tree
        self.annotation_map = mapping.annotation_map
        self.split_map = mapping.split_map
        self.leaf_storage: dict[int, LeafStorage] = {}
        self.owner_of: dict[int, int] = {}
        self.column_of_leaf: dict[int, str] = {}

    # ------------------------------------------------------------------
    def run(self) -> MappedSchema:
        by_annotation: dict[str, list[int]] = {}
        for node_id, annotation in self.mapping.annotations:
            by_annotation.setdefault(annotation, []).append(node_id)
        groups = {annotation: self._build_group(annotation, owner_ids)
                  for annotation, owner_ids in sorted(by_annotation.items())}
        return MappedSchema(self.mapping, groups, self.leaf_storage,
                            self.owner_of, self.column_of_leaf)

    # ------------------------------------------------------------------
    def _build_group(self, annotation: str, owner_ids: list[int]) -> TableGroup:
        columns: list[ColumnSpec] = [
            ColumnSpec(ID_COLUMN, None, SQLType.INTEGER, nullable=False),
            ColumnSpec(PID_COLUMN, None, SQLType.INTEGER, nullable=True),
        ]
        used = {ID_COLUMN.casefold(), PID_COLUMN.casefold()}
        primary = self.tree.plan(owner_ids[0])
        if primary.is_leaf:
            # An annotated leaf element's table stores the element value
            # in a column named after the element (author(ID, PID, author)).
            value_name = self._unique_name(primary.node.name, used)
            columns.append(ColumnSpec(
                value_name, primary.node_id,
                SQLType.from_base_type(primary.base_type), nullable=False))
            for owner in owner_ids:
                storage = self._storage(owner)
                storage.own_annotation = annotation
                storage.value_column = value_name
        # Type-merged owners have equivalent subtrees, so their regions
        # correspond slot by slot; the first owner's names the columns.
        regions = [self._region_slots(owner) for owner in owner_ids]
        first = len(columns)
        for slot in regions[0]:
            columns.append(ColumnSpec(
                self._unique_name(slot.name, used), slot.node.node_id,
                slot.sql_type, slot.nullable, slot.occurrence, slot.atoms))
        for region in regions:
            if len(region) != len(regions[0]):
                raise MappingError(
                    f"type-merged owners of {annotation!r} have diverging shapes")
            for spec, slot in zip(columns[first:], region):
                storage = self._storage(slot.node.node_id)
                storage.inline_annotation = annotation
                if slot.occurrence is None:
                    storage.column = spec.name
                    self.column_of_leaf[slot.node.node_id] = spec.name
                else:
                    storage.split_columns += (spec.name,)
        parents = {self.annotation_map[parent] for parent in
                   map(self.mapping.parent_owner_of, owner_ids)
                   if parent is not None}
        return TableGroup(
            annotation=annotation, owner_ids=tuple(owner_ids),
            columns=columns,
            partitions=self._build_partitions(annotation, owner_ids[0],
                                              columns),
            parent_annotation=parents.pop() if len(parents) == 1 else None)

    def _storage(self, leaf_id: int) -> LeafStorage:
        return self.leaf_storage.setdefault(leaf_id, LeafStorage(leaf_id))

    @staticmethod
    def _unique_name(name: str, used: set[str]) -> str:
        """``name``, or ``name_2``, ``name_3`` ... — and now used.
        ``used`` holds case-folded names: SQL compares column names
        case-insensitively, so ``id`` is taken once ``ID`` is."""
        candidate, i = name, 1
        while candidate.casefold() in used:
            i += 1
            candidate = f"{name}_{i}"
        used.add(candidate.casefold())
        return candidate

    # ------------------------------------------------------------------
    def _region_slots(self, owner_id: int) -> list[_Slot]:
        """The one walk of an owner's inline region: through the
        elements the mapping inlines, stopping at those it annotates."""
        tree = self.tree
        out: list[_Slot] = []

        def walk(plan: ElementPlan, nullable: bool, prefix: str,
                 atoms: frozenset[Atom]) -> None:
            self.owner_of[plan.node_id] = owner_id
            for member in plan.members:
                if isinstance(member, AttributePlan):
                    out.append(_Slot(
                        member.node, prefix + member.name,
                        SQLType.from_base_type(member.base_type),
                        nullable or not member.required, None, atoms))
                    continue
                node = member.node
                child = tree.plan(node)
                name = prefix + node.name
                inner = atoms | member.atoms
                if member.rep_id in self.split_map:
                    sql_type = SQLType.from_base_type(child.base_type)
                    out.extend(
                        _Slot(node, f"{name}_{occurrence}", sql_type, True,
                              occurrence, inner) for occurrence in
                        range(1, self.split_map[member.rep_id] + 1))
                if node.node_id in self.annotation_map:
                    continue    # its own table: the region ends here
                optional = nullable or bool(member.atoms)
                if child.is_leaf:
                    out.append(_Slot(
                        node, name, SQLType.from_base_type(child.base_type),
                        optional, None, inner))
                    optional = True     # an inlined leaf's attributes always are
                walk(child, optional, name + "_", inner)

        walk(tree.plan(owner_id), False, "", frozenset())
        return out

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def _build_partitions(self, annotation: str, owner: int,
                          columns: list[ColumnSpec]) -> list[PartitionSpec]:
        """One partition per combination of the owner's distributions'
        options (exactly one, unconditioned, when it has none); each
        drops the columns that are statically absent under it."""
        dists = [d for d in self.mapping.distributions
                 if self.mapping.distribution_owner(d) == owner]
        per_dist = [self._partition_options(dist) for dist in
                    sorted(dists, key=lambda d: sorted(d.nodes()))]
        partitions: list[PartitionSpec] = []
        for combo in itertools.product(*per_dist):
            conditions = tuple(cond for _, cond in combo)
            partitions.append(PartitionSpec(
                table_name="_".join([annotation, *(tag for tag, _ in combo)]),
                conditions=conditions,
                column_names=tuple(
                    spec.name for spec in columns
                    if not _statically_absent(spec.features, conditions))))
        return partitions

    def _partition_options(self, dist: UnionDistribution):
        tree = self.tree
        options: list[tuple[str, object]] = []
        if dist.choice_id is not None:
            choice = tree.node(dist.choice_id)
            for index, branch in enumerate(tree.children(choice)):
                options.append((self._branch_tag(branch),
                                BranchCondition(dist.choice_id, index)))
        else:
            names = [self._branch_tag(tree.node(oid))
                     for oid in sorted(dist.optional_ids)]
            label = "_".join(names)[:40]
            options.append((f"has_{label}",
                            PresenceCondition(dist.optional_ids, True)))
            options.append((f"no_{label}",
                            PresenceCondition(dist.optional_ids, False)))
        return options

    def _branch_tag(self, node: SchemaNode) -> str:
        """Short label for a choice branch / optional node."""
        if node.kind == NodeKind.TAG:
            return node.name
        for child in self.tree.children(node):
            label = self._branch_tag(child)
            if label:
                return label
        return f"b{node.node_id}"
