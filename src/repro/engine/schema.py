"""Catalog objects: columns, tables, foreign keys, materialized views.

A :class:`Table` can exist in two modes:

* *stats-only* — metadata plus statistics, enough for the optimizer and
  the physical design advisor to cost queries (what-if mode). This is how
  the design search evaluates thousands of candidate mappings without
  loading data.
* *materialized* — metadata plus actual rows, used for the final
  evaluation runs.

Materialized views are tables carrying a :class:`JoinViewDefinition`; the
optimizer may substitute them into matching plans, and the index
machinery treats them exactly like base tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import CatalogError
from .types import PAGE_FILL_FACTOR, PAGE_SIZE, ROW_OVERHEAD, SQLType


@dataclass
class Column:
    """One table column."""

    name: str
    sql_type: SQLType
    nullable: bool = True
    avg_width: int | None = None  # override of the type's default width

    @property
    def width(self) -> int:
        return self.avg_width if self.avg_width is not None else self.sql_type.default_width

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Column {self.name} {self.sql_type.value}>"


@dataclass(frozen=True)
class ForeignKey:
    """``child.column`` references the parent table's ``ID``."""

    column: str
    parent_table: str


@dataclass(frozen=True)
class JoinViewDefinition:
    """Definition of a two-table join materialized view.

    The view materializes::

        SELECT <columns> FROM parent P, child C WHERE C.<fk> = P.ID

    ``columns`` maps view column name -> (source table, source column).
    """

    parent_table: str
    child_table: str
    child_fk_column: str
    columns: tuple[tuple[str, tuple[str, str]], ...]


class Table:
    """A base table or materialized view."""

    def __init__(self, name: str, columns: list[Column],
                 primary_key: str | None = "ID",
                 foreign_keys: list[ForeignKey] | None = None,
                 view_def: JoinViewDefinition | None = None):
        if len({c.name for c in columns}) != len(columns):
            raise CatalogError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns = list(columns)
        self.primary_key = primary_key
        self.foreign_keys = list(foreign_keys or [])
        self.view_def = view_def
        self.rows: list[tuple] | None = None  # None => stats-only
        self._column_index = {c.name: i for i, c in enumerate(columns)}
        self.row_count_estimate: int = 0

    # ------------------------------------------------------------------
    @property
    def is_view(self) -> bool:
        return self.view_def is not None

    @property
    def is_materialized(self) -> bool:
        return self.rows is not None

    def column(self, name: str) -> Column:
        try:
            return self.columns[self._column_index[name]]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._column_index

    def lacks(self, names: frozenset[str]) -> set[str]:
        """Those of ``names`` that are no column of this table."""
        return names - self._column_index.keys()

    def column_position(self, name: str) -> int:
        if name not in self._column_index:
            raise CatalogError(f"table {self.name!r} has no column {name!r}")
        return self._column_index[name]

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def set_rows(self, rows: list[tuple]) -> None:
        width = len(self.columns)
        for row in rows:
            if len(row) != width:
                raise CatalogError(
                    f"row width {len(row)} != {width} columns in {self.name!r}")
        self.rows = rows
        self.row_count_estimate = len(rows)

    def insert(self, row: tuple) -> None:
        if self.rows is None:
            self.rows = []
        if len(row) != len(self.columns):
            raise CatalogError(
                f"row width {len(row)} != {len(self.columns)} columns "
                f"in {self.name!r}")
        self.rows.append(row)
        self.row_count_estimate = len(self.rows)

    @property
    def row_count(self) -> int:
        if self.rows is not None:
            return len(self.rows)
        return self.row_count_estimate

    # ------------------------------------------------------------------
    # Page model
    # ------------------------------------------------------------------
    @property
    def row_width(self) -> int:
        return ROW_OVERHEAD + sum(c.width for c in self.columns)

    def pages_for(self, rows: int) -> int:
        """Pages ``rows`` rows of this table's width fill (the optimizer
        asks with the statistics' row count, which may differ from
        :attr:`row_count`)."""
        usable = PAGE_SIZE * PAGE_FILL_FACTOR
        rows_per_page = max(1, int(usable // self.row_width))
        return max(1, math.ceil(rows / rows_per_page))

    @property
    def page_count(self) -> int:
        return self.pages_for(self.row_count)

    @property
    def size_bytes(self) -> int:
        return self.page_count * PAGE_SIZE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "view" if self.is_view else "table"
        return f"<{kind} {self.name} cols={len(self.columns)} rows={self.row_count}>"


class Catalog:
    """Named collection of tables, views, and indexes."""

    def __init__(self):
        self.tables: dict[str, Table] = {}
        self.indexes: dict[str, "Index"] = {}  # noqa: F821 - see index.py

    def add_table(self, table: Table) -> Table:
        if table.name in self.tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self.tables[table.name] = table
        return table

    def drop_table(self, name: str) -> None:
        self.tables.pop(name, None)
        for index_name in [n for n, ix in self.indexes.items()
                           if ix.table_name == name]:
            del self.indexes[index_name]

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def add_index(self, index: "Index") -> "Index":  # noqa: F821
        if index.name in self.indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        self.table(index.table_name)  # must exist
        self.indexes[index.name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError(f"unknown index {name!r}")
        del self.indexes[name]

    def base_tables(self) -> list[Table]:
        return [t for t in self.tables.values() if not t.is_view]

    def views(self) -> list[Table]:
        return [t for t in self.tables.values() if t.is_view]

    def total_data_bytes(self) -> int:
        """Size of base tables only (views/indexes count as design)."""
        return sum(t.size_bytes for t in self.base_tables())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Catalog tables={len(self.tables)} "
                f"indexes={len(self.indexes)}>")
