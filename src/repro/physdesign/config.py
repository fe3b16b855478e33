"""Physical design configurations: what the what-if optimizer reads.

``indexes`` are the secondary indexes and each clustered view's own
``Index(clustered=True)``, named after the view (it *is* the view
table); ``views`` are view tables carrying their ``view_def``, as the
engine catalog keeps them. A tuning candidate is a one-structure
configuration, added to a design with ``|``. Sizes are counted against
the storage bound of Definition 1 (data + structures must fit in ``S``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import Database, Index, JoinViewDefinition, Table
from ..engine.matview import derive_view_stats, make_view_table


@dataclass
class Configuration:
    """A set of physical design structures."""

    indexes: list[Index] = field(default_factory=list)
    views: list[Table] = field(default_factory=list)

    def __or__(self, other: "Configuration") -> "Configuration":
        return Configuration(self.indexes + other.indexes,
                             self.views + other.views)

    def size_bytes(self, db: Database) -> int:
        """Model bytes of the structures — the one rule the advisor's
        storage bound and ``repro advise``'s printed size read."""
        return (sum(view.size_bytes for view in self.views)
                + sum(index.size_bytes(db.catalog.table(index.table_name))
                      for index in self.indexes if not index.clustered))

    def cluster_of(self, view: Table) -> Index | None:
        """``view``'s clustered index, or ``None`` for a heap."""
        return next((index for index in self.indexes
                     if index.clustered and index.table_name == view.name),
                    None)

    def __len__(self) -> int:
        """The number of structures: a view's cluster is the view."""
        return len(self.views) + sum(not index.clustered
                                     for index in self.indexes)

    def describe(self) -> str:
        """Human-readable summary used by examples and reports."""
        lines = []
        for index in self.indexes:
            if index.clustered:
                continue
            inc = (f" INCLUDE ({', '.join(index.included_columns)})"
                   if index.included_columns else "")
            lines.append(f"INDEX {index.name} ON {index.table_name}"
                         f"({', '.join(index.key_columns)}){inc}")
        for view in self.views:
            definition = view.view_def
            assert definition is not None
            cluster = self.cluster_of(view)
            clustered = (f" CLUSTERED ({', '.join(cluster.key_columns)})"
                         if cluster is not None else "")
            lines.append(
                f"VIEW {view.name} = {definition.parent_table} JOIN "
                f"{definition.child_table} ON {definition.child_fk_column}"
                f"{clustered}")
        return "\n".join(lines) if lines else "(no physical structures)"


def make_view_candidate(name: str, definition: JoinViewDefinition,
                        db: Database,
                        cluster_key: tuple[str, ...] = ()) -> Configuration:
    """A one-view candidate for what-if costing: the stats-only view
    table, clustered on ``cluster_key`` (view column names) when one is
    given."""
    parent = db.catalog.table(definition.parent_table)
    child = db.catalog.table(definition.child_table)
    table = make_view_table(name, definition, parent, child)
    # Register stats so the optimizer can estimate selectivities on it.
    db.stats.set_table(name, derive_view_stats(table, db.stats))
    cluster = ([Index(name=name, table_name=name, key_columns=cluster_key,
                      clustered=True)]
               if cluster_key else [])
    return Configuration(cluster, [table])
