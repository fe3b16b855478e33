"""Physical design configurations.

A configuration is a set of (hypothetical or materialized) indexes and
join views, with size accounting against the storage bound of the
paper's problem definition (Definition 1: data + physical design
structures must fit in ``S``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import Database, Index, JoinViewDefinition, Table
from ..engine.matview import derive_view_stats, make_view_table


@dataclass
class ViewCandidate:
    """A join-view candidate with its stats-only table object.

    ``cluster`` is the clustered index the view is stored under — an
    indexed view, its rows kept in the order of the key the SELECT it
    was proposed for seeks by — or ``None`` for a heap. It carries the
    view's own name (the index *is* the view table) and adds no bytes.
    """

    name: str
    definition: JoinViewDefinition
    table: Table
    cluster: Index | None = None

    @property
    def cluster_key(self) -> tuple[str, ...]:
        return self.cluster.key_columns if self.cluster is not None else ()

    def size_bytes(self) -> int:
        return self.table.size_bytes


@dataclass
class Configuration:
    """A set of physical design structures."""

    indexes: list[Index] = field(default_factory=list)
    views: list[ViewCandidate] = field(default_factory=list)

    def size_bytes(self, db: Database) -> int:
        total = 0
        for index in self.indexes:
            table = db.catalog.table(index.table_name)
            total += index.size_bytes(table)
        for view in self.views:
            total += view.size_bytes()
        return total

    def extended(self, candidate) -> "Configuration":
        """A new configuration with one more structure."""
        if isinstance(candidate, Index):
            return Configuration(self.indexes + [candidate], list(self.views))
        return Configuration(list(self.indexes), self.views + [candidate])

    def object_names(self) -> frozenset[str]:
        return frozenset([ix.name for ix in self.indexes]
                         + [v.name for v in self.views])

    def extra_tables(self) -> list[Table]:
        return [v.table for v in self.views]

    def all_indexes(self) -> list[Index]:
        """The secondary indexes, then each clustered view's index: what
        a configuration is costed under and built with."""
        return self.indexes + [v.cluster for v in self.views
                               if v.cluster is not None]

    def __len__(self) -> int:
        return len(self.indexes) + len(self.views)

    def describe(self) -> str:
        """Human-readable summary used by examples and reports."""
        lines = []
        for index in self.indexes:
            inc = (f" INCLUDE ({', '.join(index.included_columns)})"
                   if index.included_columns else "")
            lines.append(f"INDEX {index.name} ON {index.table_name}"
                         f"({', '.join(index.key_columns)}){inc}")
        for view in self.views:
            definition = view.definition
            clustered = (f" CLUSTERED ({', '.join(view.cluster_key)})"
                         if view.cluster_key else "")
            lines.append(
                f"VIEW {view.name} = {definition.parent_table} JOIN "
                f"{definition.child_table} ON {definition.child_fk_column}"
                f"{clustered}")
        return "\n".join(lines) if lines else "(no physical structures)"


def make_view_candidate(name: str, definition: JoinViewDefinition,
                        db: Database,
                        cluster_key: tuple[str, ...] = ()) -> ViewCandidate:
    """Build the stats-only view table for what-if costing, clustered on
    ``cluster_key`` (view column names) when one is given."""
    parent = db.catalog.table(definition.parent_table)
    child = db.catalog.table(definition.child_table)
    table = make_view_table(name, definition, parent, child)
    stats = derive_view_stats(table, definition, db.stats)
    # Register stats so the optimizer can estimate selectivities on it.
    db.stats.set_table(name, stats)
    cluster = (Index(name=name, table_name=name, key_columns=cluster_key,
                     clustered=True, hypothetical=True)
               if cluster_key else None)
    return ViewCandidate(name=name, definition=definition, table=table,
                         cluster=cluster)
