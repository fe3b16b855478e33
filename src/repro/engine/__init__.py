"""In-memory relational engine with a cost-based optimizer.

Substitutes for the paper's Microsoft SQL Server 2000 instance: indexes
over sorted entries, covering indexes, materialized join views, hash /
index-nested-loop / nested-loop joins, histogram statistics, and a
page-I/O + CPU cost model applied identically by the optimizer
(estimates) and the executor (measurements).
"""

from .btree import SortedEntries, encode_key
from .cost import CostCounter
from .database import Database, ExecutionResult
from .index import Index, primary_key_index
from .matview import (derive_view_stats, make_view_table, populate_view,
                      select_over_view)
from .optimizer import Optimizer, PlannedQuery
from .schema import (Catalog, Column, ForeignKey, JoinViewDefinition, Table)
from .statistics import ColumnStats, StatisticsCatalog, TableStats
from .types import PAGE_SIZE, SQLType

__all__ = [
    "SortedEntries",
    "encode_key",
    "CostCounter",
    "Database",
    "ExecutionResult",
    "Index",
    "primary_key_index",
    "make_view_table",
    "populate_view",
    "derive_view_stats",
    "select_over_view",
    "Optimizer",
    "PlannedQuery",
    "Catalog",
    "Column",
    "ForeignKey",
    "JoinViewDefinition",
    "Table",
    "ColumnStats",
    "StatisticsCatalog",
    "TableStats",
    "SQLType",
    "PAGE_SIZE",
]
