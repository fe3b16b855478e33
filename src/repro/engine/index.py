"""Index objects: definitions, size model, and sorted-entry builds.

An index is defined by its key columns plus optional *included* columns
(non-key columns stored in the leaves). An index **covers** a query's
references to its table when every referenced column appears among key,
included, or the table's primary key — exactly the covering-index notion
of the paper's footnote 2: the query "can be evaluated from the index
only, without accessing the table".

An index is *hypothetical* ("what-if") until :meth:`Index.build` runs —
exactly when it is not :attr:`Index.is_built`: fully costable from
statistics, but holding no entries. The tuning advisor works
exclusively with hypothetical indexes and only materializes the final
recommendation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import CatalogError
from .btree import SortedEntries
from .schema import Table
from .types import INDEX_ENTRY_OVERHEAD, PAGE_FILL_FACTOR, PAGE_SIZE


@dataclass
class Index:
    """A (possibly hypothetical) secondary or clustered index."""

    name: str
    table_name: str
    key_columns: tuple[str, ...]
    included_columns: tuple[str, ...] = ()
    clustered: bool = False
    _tree: SortedEntries | None = field(default=None, repr=False, compare=False)
    _table: Table | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.key_columns:
            raise CatalogError(f"index {self.name!r} needs key columns")
        overlap = set(self.key_columns) & set(self.included_columns)
        if overlap:
            raise CatalogError(
                f"index {self.name!r}: columns {sorted(overlap)} are both "
                f"key and included")

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    @property
    def all_columns(self) -> tuple[str, ...]:
        return self.key_columns + self.included_columns

    def covers(self, columns: set[str], table: Table) -> bool:
        """Whether all ``columns`` can be answered from this index alone."""
        available = set(self.all_columns)
        if self.clustered:
            return True  # clustered leaves are the rows themselves
        if table.primary_key:
            available.add(table.primary_key)  # row locator is in the leaf
        return columns <= available

    # ------------------------------------------------------------------
    # Size / shape model (works for hypothetical indexes too)
    # ------------------------------------------------------------------
    def entry_width(self, table: Table) -> int:
        width = INDEX_ENTRY_OVERHEAD
        for name in self.all_columns:
            width += table.column(name).width
        if not self.clustered and table.primary_key and \
                table.primary_key not in self.all_columns:
            width += table.column(table.primary_key).width
        return width

    def entries_per_page(self, table: Table) -> int:
        usable = PAGE_SIZE * PAGE_FILL_FACTOR
        # A clustered index's leaf entries are the table's rows.
        width = table.row_width if self.clustered else self.entry_width(table)
        return max(1, int(usable // width))

    def leaf_page_count(self, table: Table) -> int:
        if self.clustered:
            return table.page_count
        return max(1, math.ceil(table.row_count
                                / self.entries_per_page(table)))

    def page_count(self, table: Table) -> int:
        """Leaf plus internal pages."""
        leaf = self.leaf_page_count(table)
        fanout = self.fanout(table)
        total, level = leaf, leaf
        while level > 1:
            level = math.ceil(level / fanout)
            total += level
        return total

    def fanout(self, table: Table) -> int:
        key_width = INDEX_ENTRY_OVERHEAD + sum(
            table.column(c).width for c in self.key_columns)
        return max(2, int(PAGE_SIZE * PAGE_FILL_FACTOR // key_width))

    def height(self, table: Table) -> int:
        leaf = self.leaf_page_count(table)
        return max(1, 1 + math.ceil(math.log(max(leaf, 2),
                                             self.fanout(table))))

    def size_bytes(self, table: Table) -> int:
        if self.clustered:
            return 0  # the clustered index *is* the table
        return self.page_count(table) * PAGE_SIZE

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def build(self, table: Table) -> None:
        """Materialize the index's entries over the table's rows."""
        if table.rows is None:
            raise CatalogError(
                f"cannot build index {self.name!r}: table {table.name!r} "
                f"has no data")
        positions = [table.column_position(c) for c in self.key_columns]
        entries = [
            (tuple(row[p] for p in positions), i)
            for i, row in enumerate(table.rows)
        ]
        self._tree = SortedEntries(entries)
        self._table = table

    @property
    def is_built(self) -> bool:
        return self._tree is not None

    @property
    def tree(self) -> SortedEntries:
        if self._tree is None:
            raise CatalogError(f"index {self.name!r} is not built")
        return self._tree

    def signature(self) -> tuple:
        """Identity of the index's content (for deduplication)."""
        return (self.table_name, self.key_columns,
                tuple(sorted(self.included_columns)), self.clustered)


def primary_key_index(table: Table) -> Index:
    """The implicit clustered primary-key index every table has."""
    if not table.primary_key:
        raise CatalogError(f"table {table.name!r} has no primary key")
    return Index(
        name=f"pk_{table.name}",
        table_name=table.name,
        key_columns=(table.primary_key,),
        clustered=True,
    )
