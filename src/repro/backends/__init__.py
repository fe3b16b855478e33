"""Execution backends: the in-memory engine and real DBMSs behind one
protocol, plus the cross-backend comparator (whose ``queries`` check is
the differential oracle) and cost-model calibration.

See docs/backends.md.
"""

from .base import (EngineBackend, IntrospectableBackend, QueryTiming,
                   SQLBackend, Statement, timed_runs)
from .calibrate import (CalibrationReport, DesignPoint, QueryPoint,
                        logical_only_design, run_calibration, spearman)
from .compare import (CheckResult, CompareReport, backend_factory,
                      check_queries, compare_datasets, compare_design,
                      compare_loaded, known_backends, loaded_backend,
                      multiset_diff, normalize_row)
from .dbms import RelationalBackend
from .dialect import (DUCKDB, SQLITE, Dialect, DialectError, DuckDBDialect,
                      SQLiteDialect, render_query)
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
    "DialectError",
    "render_query",
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
    "logical_only_design",
    "spearman",
]
