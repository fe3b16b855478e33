"""The relational schema derived from a mapping, with resolution metadata.

The mapper (:mod:`repro.mapping.mapper`) turns a :class:`Mapping` into a
:class:`MappedSchema`: one :class:`TableGroup` per annotation, each with
its full column set and one or more horizontal :class:`PartitionSpec`
(more than one when union distributions apply). Alongside the engine
tables, the mapped schema records *where every schema-tree node's data
lives*, which the translator, the shredder, and the statistics deriver
all consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import Column, SQLType, Table
from ..errors import MappingError
from ..xsd import Atom
from .model import Mapping

ID_COLUMN = "ID"
PID_COLUMN = "PID"


@dataclass(frozen=True)
class BranchCondition:
    """Partition condition: choice ``choice_id`` took branch ``branch_index``."""

    choice_id: int
    branch_index: int


@dataclass(frozen=True)
class PresenceCondition:
    """Partition condition on optional elements.

    ``present=True``: at least one of ``optional_ids`` is present;
    ``present=False``: none is.
    """

    optional_ids: frozenset[int]
    present: bool


PartitionCondition = BranchCondition | PresenceCondition


def conditions_hold(conditions: tuple[PartitionCondition, ...],
                    atoms: frozenset[Atom] | set[Atom]) -> bool:
    """Whether an owner instance whose region showed ``atoms`` belongs
    to the partition with these conditions. The one membership test:
    it sizes partitions from ``CollectedStats.joint`` and routes the
    shredder's rows, so estimate and load agree by construction."""
    for condition in conditions:
        if isinstance(condition, BranchCondition):
            if ("choice", condition.choice_id,
                    condition.branch_index) not in atoms:
                return False
        elif condition.present != any(("opt", optional_id) in atoms
                                      for optional_id in condition.optional_ids):
            return False
    return True


@dataclass
class ColumnSpec:
    """One relational column and its schema-tree source."""

    name: str
    leaf_id: int | None  # source leaf TAG node; None for ID/PID
    sql_type: SQLType
    nullable: bool
    occurrence: int | None = None  # 1-based index for repetition-split cols
    #: Every OPTION / CHOICE-branch atom between the owner and the
    #: value: it can be non-null only in an instance showing them all.
    features: frozenset[Atom] = frozenset()

    def to_engine_column(self) -> Column:
        return Column(self.name, self.sql_type, nullable=self.nullable)


@dataclass
class PartitionSpec:
    """One horizontal partition (physical table) of a table group."""

    table_name: str
    conditions: tuple[PartitionCondition, ...]
    column_names: tuple[str, ...]


@dataclass
class LeafStorage:
    """Where a leaf element's values live under the mapping.

    A leaf can have inline storage (a column, or repetition-split
    columns, in the owning region's table group) and/or its own table
    (an outlined leaf, or the overflow table of a repetition split).
    """

    leaf_id: int
    inline_annotation: str | None = None  # group holding inline column(s)
    column: str | None = None             # plain inlined column name
    split_columns: tuple[str, ...] = ()   # repetition-split inline columns
    own_annotation: str | None = None     # leaf's own table
    value_column: str | None = None       # value column in its own table

    @property
    def is_inlined(self) -> bool:
        return self.column is not None

    @property
    def is_split(self) -> bool:
        return bool(self.split_columns)

    @property
    def has_own_table(self) -> bool:
        return self.own_annotation is not None


@dataclass
class TableGroup:
    """All tables deriving from one annotation."""

    annotation: str
    owner_ids: tuple[int, ...]
    columns: list[ColumnSpec]
    partitions: list[PartitionSpec]
    parent_annotation: str | None

    def column(self, name: str) -> ColumnSpec:
        for spec in self.columns:
            if spec.name == name:
                return spec
        raise MappingError(
            f"table group {self.annotation!r} has no column {name!r}")

    def partitions_with_column(self, name: str) -> list[PartitionSpec]:
        return [p for p in self.partitions if name in p.column_names]

    @property
    def table_names(self) -> list[str]:
        return [p.table_name for p in self.partitions]


class MappedSchema:
    """A mapping's derived relational schema plus resolution metadata."""

    def __init__(self, mapping: Mapping, groups: dict[str, TableGroup],
                 leaf_storage: dict[int, LeafStorage],
                 owner_of: dict[int, int],
                 column_of_leaf: dict[int, str]):
        self.mapping = mapping
        self.tree = mapping.tree
        self.groups = groups
        self.leaf_storage = leaf_storage
        self.owner_of = owner_of            # TAG node id -> annotated node id
        self.column_of_leaf = column_of_leaf  # leaf id -> inline column name
        self._partition_by_name = {
            p.table_name: (g, p)
            for g in groups.values() for p in g.partitions}

    # ------------------------------------------------------------------
    def group(self, annotation: str) -> TableGroup:
        try:
            return self.groups[annotation]
        except KeyError:
            raise MappingError(f"no table group {annotation!r}") from None

    def partition(self, table_name: str) -> tuple[TableGroup, PartitionSpec]:
        try:
            return self._partition_by_name[table_name]
        except KeyError:
            raise MappingError(f"no partition table {table_name!r}") from None

    def storage_of(self, leaf_id: int) -> LeafStorage:
        try:
            return self.leaf_storage[leaf_id]
        except KeyError:
            raise MappingError(
                f"leaf node #{leaf_id} has no storage entry") from None

    @property
    def table_names(self) -> list[str]:
        return [name for g in self.groups.values() for name in g.table_names]

    # ------------------------------------------------------------------
    def to_engine_tables(self) -> list[Table]:
        """Engine table objects (one per partition), data-free."""
        tables: list[Table] = []
        for group in self.groups.values():
            specs_by_name = {c.name: c for c in group.columns}
            for partition in group.partitions:
                columns = [specs_by_name[n].to_engine_column()
                           for n in partition.column_names]
                tables.append(Table(partition.table_name, columns,
                                    primary_key=ID_COLUMN))
        return tables

    def describe(self) -> str:
        """Human-readable schema listing (used by examples)."""
        lines: list[str] = []
        for group in sorted(self.groups.values(), key=lambda g: g.annotation):
            for partition in group.partitions:
                lines.append(f"{partition.table_name}"
                             f"({', '.join(partition.column_names)})")
        return "\n".join(lines)

    def signature(self) -> tuple:
        """Identity of the *relational* schema (for subsumption tests)."""
        return tuple(sorted(
            (p.table_name, tuple(sorted(p.column_names)))
            for g in self.groups.values() for p in g.partitions))
