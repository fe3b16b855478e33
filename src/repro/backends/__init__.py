"""Execution backends: the in-memory engine and real DBMSs behind one
protocol, plus the cross-backend comparator (whose ``queries`` check is
the differential oracle) and cost-model calibration.

See docs/backends.md.
"""

from .base import (EngineBackend, IntrospectableBackend, QueryTiming,
                   SQLBackend, Statement, timed_runs)
from .calibrate import (CalibrationReport, DesignPoint, QueryPoint,
                        logical_only_design, run_calibration, spearman,
                        time_on_sqlite)
from .compare import (CheckResult, CompareReport, backend_factory,
                      check_queries, compare_datasets, compare_design,
                      compare_loaded, known_backends, loaded_backend,
                      multiset_diff, normalize_row)
from .dbms import RelationalBackend
from .dialect import (DUCKDB, SQLITE, Dialect, DialectError, DuckDBDialect,
                      SQLiteDialect, create_index_sql, create_table_sql,
                      create_view_table_sql, dialect_for, insert_sql,
                      quote_identifier, render_query, sqlite_type)
from .duckdb import DuckDBBackend, duckdb_available
from .sqlite import (MANIFEST_TABLE, BackendBusyError, BackendError,
                     LoadManifest, SQLiteBackend)

__all__ = [
    "SQLBackend",
    "IntrospectableBackend",
    "EngineBackend",
    "RelationalBackend",
    "SQLiteBackend",
    "DuckDBBackend",
    "duckdb_available",
    "QueryTiming",
    "Statement",
    "timed_runs",
    "BackendError",
    "BackendBusyError",
    "LoadManifest",
    "MANIFEST_TABLE",
    "Dialect",
    "SQLiteDialect",
    "DuckDBDialect",
    "SQLITE",
    "DUCKDB",
    "dialect_for",
    "DialectError",
    "render_query",
    "quote_identifier",
    "sqlite_type",
    "create_table_sql",
    "create_index_sql",
    "create_view_table_sql",
    "insert_sql",
    "multiset_diff",
    "normalize_row",
    "CheckResult",
    "CompareReport",
    "check_queries",
    "compare_loaded",
    "compare_design",
    "compare_datasets",
    "loaded_backend",
    "backend_factory",
    "known_backends",
    "CalibrationReport",
    "DesignPoint",
    "QueryPoint",
    "run_calibration",
    "time_on_sqlite",
    "logical_only_design",
    "spearman",
]
