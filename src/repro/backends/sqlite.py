"""A real-DBMS execution backend on stdlib ``sqlite3``.

All of the machinery — streaming bulk load, the crash-safe load
manifest, physical-design DDL, per-thread connections, exclusive
timing — lives in :class:`~repro.backends.dbms.RelationalBackend`;
this module supplies the sqlite3 driver hooks:

* **Per-thread connections.** ``sqlite3`` connections are not
  thread-safe objects, so every thread gets its own. In-memory
  databases use a uniquely named shared-cache URI
  (``file:...?mode=memory&cache=shared``) so the per-thread
  connections all see the data the primary connection loaded;
  file-backed databases can be reopened read-only
  (``read_only=True`` opens every connection with ``mode=ro``), which
  is what a long-lived query service wants — serving connections
  physically cannot write.
* **Journaling.** WAL on file-backed databases keeps bulk-load
  transactions cheap and lets read-only serving connections coexist
  with a writer; in-memory databases use MEMORY journaling.
* **Busy classification.** ``SQLITE_BUSY``/``SQLITE_LOCKED`` map to
  the retryable :class:`~repro.backends.dbms.BackendBusyError` — under
  WAL a busy reader/writer collision is momentary.
* **Statistics.** ``ANALYZE`` runs after configuration DDL so the
  planner sees index cardinalities.

The SQL itself comes from :data:`repro.backends.dialect.SQLITE` — see
that module for the affinity mapping (DECIMAL→REAL, BOOLEAN→INTEGER,
DATE→TEXT) and docs/backends.md for how it diverges from DuckDB's.
"""

from __future__ import annotations

import itertools
import os
import sqlite3

from ..obs import NullTracer, Tracer
from ..resilience import active_fault_plan
from .dbms import (DEFAULT_LOAD_BATCH, DEFAULT_TXN_ROWS, MANIFEST_TABLE,
                   BackendBusyError, BackendError, LoadManifest,
                   RelationalBackend)
from .dialect import SQLITE

__all__ = ["SQLiteBackend", "BackendError", "BackendBusyError",
           "LoadManifest", "MANIFEST_TABLE",
           "DEFAULT_LOAD_BATCH", "DEFAULT_TXN_ROWS"]


#: Distinguishes the shared-cache URIs of concurrently live in-memory
#: backends within one process (the pid covers forked workers).
_MEMORY_SERIAL = itertools.count(1)


class SQLiteBackend(RelationalBackend):
    """:class:`~repro.backends.base.SQLBackend` over stdlib sqlite3."""

    name = "sqlite"
    dialect = SQLITE
    post_ddl = ("ANALYZE",)
    _driver_error = (sqlite3.Error,)

    def __init__(self, path: str = ":memory:",
                 tracer: Tracer | NullTracer | None = None,
                 read_only: bool = False):
        if path == ":memory:":
            # A plain ":memory:" connection is private to itself — a
            # second (per-thread) connection would see an empty
            # database. A named shared-cache URI gives every
            # connection of this backend the same in-memory database.
            self._uri = (f"file:repro-sqlite-{os.getpid()}-"
                         f"{next(_MEMORY_SERIAL)}?mode=memory&cache=shared")
        else:
            base = f"file:{path}"
            self._uri = f"{base}?mode=ro" if read_only else base
        self._worker_uri = self._uri
        super().__init__(path=path, tracer=tracer, read_only=read_only)

    # ------------------------------------------------------------------
    # Driver hooks
    # ------------------------------------------------------------------
    def _open(self, uri: str) -> sqlite3.Connection:
        active_fault_plan().maybe_raise("backend.connect")
        try:
            # check_same_thread=False so close(), and the sweep that
            # releases a finished thread's connection, can close it
            # from another thread; each connection is otherwise used
            # only by the thread that opened it.
            return sqlite3.connect(uri, uri=True, check_same_thread=False)
        except sqlite3.Error as exc:
            raise BackendError(f"cannot open {uri!r}: {exc}") from exc

    def _open_primary(self) -> sqlite3.Connection:
        return self._open(self._uri)

    def _open_worker(self) -> sqlite3.Connection:
        return self._open(self._worker_uri)

    def _configure_primary(self) -> None:
        self.connection.execute("PRAGMA synchronous = OFF")
        if self.path == ":memory:":
            self.connection.execute("PRAGMA journal_mode = MEMORY")
        elif not self.read_only:
            # WAL keeps bulk-load transactions cheap on file-backed
            # databases and lets read-only serving connections coexist
            # with a writer. (Read-only opens cannot switch modes.)
            self.connection.execute("PRAGMA journal_mode = WAL")

    def _is_busy(self, exc: BaseException) -> bool:
        if not isinstance(exc, sqlite3.OperationalError):
            return False
        message = str(exc).lower()
        return "locked" in message or "busy" in message

    # ------------------------------------------------------------------
    # Catalog introspection
    # ------------------------------------------------------------------
    def _table_on_disk(self, name: str) -> bool:
        try:
            row = self.connection.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' "
                "AND name = ?", (name,)).fetchone()
        except sqlite3.Error as exc:  # pragma: no cover - defensive
            raise BackendError(
                f"inspecting sqlite_master failed: {exc}") from exc
        return row is not None

    def table_names_on_disk(self) -> list[str]:
        rows = self.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name").fetchall()
        return [name for (name,) in rows]

    def table_columns(self, name: str) -> list[tuple[str, str]]:
        quoted = self.dialect.quote(name)
        rows = self.connection.execute(
            f"PRAGMA table_info({quoted})").fetchall()
        return [(row[1], str(row[2]).upper()) for row in rows]

    def index_names(self) -> list[str]:
        # sqlite_autoindex_* entries back PRIMARY KEY / UNIQUE
        # constraints, not user DDL.
        rows = self.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name").fetchall()
        return [name for (name,) in rows]
