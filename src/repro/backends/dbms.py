"""The shared real-DBMS backend skeleton.

:class:`RelationalBackend` holds everything about driving a DB-API
style engine that is *not* specific to one driver: streaming bulk load
through :func:`repro.mapping.shred_typed_batches`, the crash-safe load
manifest, physical-design DDL, the concurrent serve path, and the
exclusive warmup+median timing path. :class:`~repro.backends.sqlite.
SQLiteBackend` and :class:`~repro.backends.duckdb.DuckDBBackend` are
thin subclasses that supply a :class:`~repro.backends.dialect.Dialect`
plus the driver hooks (connect, catalog introspection, busy-error
classification, transaction bracketing).

A database is loaded once: one ``load()`` writes every mapped table
and a second is refused, so the physical design applied afterwards
never has to be kept current. The load streams in chunked
``executemany`` calls inside sized transactions, so both engines see
byte-identical shredded rows, any result divergence is a semantics bug
rather than a loading artifact, and peak load memory is bounded by the
batch size, not the document (docs/scaling.md).

Crash safety
------------

``load`` maintains a **load manifest** — a ``_repro_load_manifest``
key/value table inside the target database holding the mapped schema's
digest, the load mode (``fresh``), a per-table committed-row
watermark, and a ``complete`` marker. The manifest header commits
*before* the first mapped table is created, and watermark updates join
every data transaction, so after a crash (even ``SIGKILL``) the
database always holds a consistent prefix of the load *and* a manifest
describing it exactly. A fresh backend reopening the file detects the interrupted
load via :meth:`load_manifest` and ``load()`` either **resumes** from
the last committed batch (``resume=True`` — shredding is deterministic,
so re-streaming and skipping the watermarked prefix reproduces the
missing rows with identical IDs) or **rolls back** cleanly (default:
drop the partial tables and reload from scratch) instead of dying on a
raw "table already exists". ``scripts/load_kill_smoke.py`` proves this
against a real ``SIGKILL`` in CI.

Concurrency model
-----------------

Driver connections are not thread-safe objects, and the naive "one
connection created on the loading thread, used everywhere" design
either throws thread-affinity errors or silently races when a thread
pool executes queries concurrently. Every subclass therefore keeps
**one connection per thread**:

* the *primary* connection (created in ``__init__``) performs all
  loading and DDL, which stays single-threaded by contract;
* every other thread that executes a query lazily opens its own
  connection to the same database the first time it asks for one (how
  — a shared-cache URI, a ``cursor()`` clone — is the subclass's
  :meth:`_open_worker`);
* a connection lives as long as its thread: the backend remembers
  which thread opened it and closes the connections of finished
  threads whenever a new thread opens one (and whenever
  ``open_connections`` is read), so a service whose callers come and
  go — the query service runs ``serve()`` on the caller's thread —
  holds one connection per *live* thread, not one per thread that
  ever asked;
* :meth:`close` closes every connection still open.

``time_query`` is the *timed benchmark* path: it takes an exclusive
per-backend lock so concurrent callers cannot interleave page-cache
churn into each other's measured runs, and warmup + timed runs all
execute on the calling thread's connection. ``execute`` is the *serve*
path: it never takes that lock and runs concurrently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from ..engine import SQLType, Table, select_over_view
from ..errors import PlanError, ReproError
from ..mapping import MappedSchema, shred_typed_batches
from ..obs import NullTracer, Tracer, get_tracer
from ..physdesign import Configuration
from ..resilience import active_fault_plan
from ..search import mapping_digest
from ..sqlast import Query, Select
from ..xmlkit import collection_paused
from .base import QueryTiming, Statement, timed_runs
from .dialect import Dialect, SQLITE

__all__ = ["RelationalBackend", "BackendError", "BackendBusyError",
           "LoadManifest", "MANIFEST_TABLE",
           "DEFAULT_LOAD_BATCH", "DEFAULT_TXN_ROWS"]


class BackendError(ReproError):
    """A backend operation failed (DDL, load, or execution)."""


class BackendBusyError(BackendError):
    """The database was transiently locked or in write contention.

    ``retryable`` marks it for the resilience classifier: the serving
    layer's :class:`~repro.resilience.RetryPolicy` re-attempts these —
    a busy reader/writer collision is momentary — instead of failing
    the request.
    """

    retryable = True


#: Key/value table ``load()`` maintains inside the target database.
MANIFEST_TABLE = "_repro_load_manifest"


@dataclass(frozen=True)
class LoadManifest:
    """What a (possibly interrupted) bulk load left in the database."""

    schema_digest: str
    #: ``"fresh"``; ``"append"`` in a file an earlier version's
    #: interrupted append left behind, which ``load()`` refuses.
    mode: str
    complete: bool
    watermarks: dict[str, int] = field(default_factory=dict)


#: Rows per executemany chunk during bulk load.
DEFAULT_LOAD_BATCH = 10_000

#: Rows per load transaction (several chunks are committed together so
#: small batch sizes don't pay per-batch fsync/commit overhead).
DEFAULT_TXN_ROWS = 50_000


def _rebound(row: tuple, positions: list[int], storable) -> tuple:
    """``row`` with ``storable`` applied to the values at ``positions``."""
    values = list(row)
    for at in positions:
        values[at] = storable(values[at])
    return tuple(values)


class RelationalBackend:
    """:class:`~repro.backends.base.SQLBackend` over a DB-API driver.

    Subclass contract — class attributes:

    * ``name`` — backend key (``sqlite``, ``duckdb``).
    * ``dialect`` — the :class:`~repro.backends.dialect.Dialect` that
      renders SQL and converts bound values.
    * ``post_ddl`` — statements run after ``apply_configuration``'s
      DDL (e.g. SQLite's ``ANALYZE``).
    * ``_driver_error`` — the driver's base exception class(es); every
      raise is wrapped into :class:`BackendError`.

    and methods: :meth:`_open_primary`, :meth:`_open_worker`,
    :meth:`_table_on_disk`, :meth:`table_names_on_disk`,
    :meth:`table_columns`, :meth:`index_names`; optionally
    :meth:`_configure_primary`, :meth:`_is_busy`, :meth:`_begin_write`
    / :meth:`_commit_write` (engines without implicit transaction
    start), and :meth:`_native_rows` (fetched-value normalization).
    """

    name = "dbms"
    dialect: Dialect = SQLITE
    post_ddl: tuple[str, ...] = ()
    _driver_error: tuple[type[BaseException], ...] = (Exception,)

    def __init__(self, path: str = ":memory:",
                 tracer: Tracer | NullTracer | None = None,
                 read_only: bool = False):
        self.tracer = tracer if tracer is not None else get_tracer()
        self._metrics = self.tracer.metrics(f"backend.{self.name}")
        self.path = path
        self.read_only = read_only
        #: (owning thread, connection); the primary's owner is ``None``
        #: — it outlives the thread that built the backend.
        self._connections: list[tuple[threading.Thread | None, Any]] = []
        self._conn_lock = threading.Lock()
        self._timing_lock = threading.Lock()
        self._local = threading.local()
        self._closed = False
        # The primary connection: loading and DDL happen here, on the
        # thread that constructed the backend.
        self.connection = self._register(self._open_primary())
        self._local.connection = self.connection
        self._configure_primary()
        #: Each loaded table's primary key, as the mapped schema declares
        #: it: what a covering index orders equal keys by.
        self._primary_keys: dict[str, str | None] = {}
        #: Rows loaded per table.
        self.row_counts: dict[str, int] = {}
        #: The join views this database holds, as ``apply_configuration``
        #: built or found them, narrowest first: what ``sql_text`` reads.
        self._views: list[Table] = []

    # ------------------------------------------------------------------
    # Driver hooks
    # ------------------------------------------------------------------
    def _open_primary(self):
        """Open the primary (load/DDL) connection."""
        raise NotImplementedError

    def _open_worker(self):
        """Open one more connection to the same database, for the
        calling thread's exclusive use."""
        raise NotImplementedError

    def _configure_primary(self) -> None:
        """Per-engine session setup on the primary connection."""

    def _is_busy(self, exc: BaseException) -> bool:
        """Whether ``exc`` is transient lock contention (retryable)."""
        return False

    def _begin_write(self) -> None:
        """Start a write transaction on the primary connection.

        The default is a no-op for engines (sqlite3) that open a
        transaction implicitly on the first write; autocommit engines
        override this (idempotently — the load loop calls it once per
        batch, paired with one :meth:`_commit_write` per sized
        transaction).
        """

    def _commit_write(self) -> None:
        self.connection.commit()

    def _native_rows(self, rows: list[tuple]) -> list[tuple]:
        """Normalize driver-specific fetched values (e.g. Decimal)."""
        return rows

    # -- catalog introspection (the comparator's raw material) ---------
    def _table_on_disk(self, name: str) -> bool:
        raise NotImplementedError

    def table_names_on_disk(self) -> list[str]:
        """Sorted user-table names physically present in the database."""
        raise NotImplementedError

    def table_columns(self, name: str) -> list[tuple[str, str]]:
        """``(column name, declared type)`` in declaration order."""
        raise NotImplementedError

    def index_names(self) -> list[str]:
        """Sorted names of user-created (non-constraint) indexes."""
        raise NotImplementedError

    def table_rows(self, name: str) -> list[tuple]:
        """Every row of one table (unordered; callers sort)."""
        return self.execute_sql(
            f'SELECT * FROM {self.dialect.quote(name)}')

    def declared_type(self, sql_type: SQLType) -> str:
        """The declared type the dialect gives a mapped column."""
        return self.dialect.type_name(sql_type)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _register(self, connection, owner: threading.Thread | None = None):
        with self._conn_lock:
            if self._closed:
                connection.close()
                raise BackendError("backend is closed")
            self._connections.append((owner, connection))
        return connection

    def _release_finished(self) -> None:
        """Close the connections whose threads have ended.

        Whoever calls this is by definition another thread — drivers
        open connections so that one may close them
        (``check_same_thread=False``) — and a dead thread cannot be in
        the middle of a query.
        """
        finished = []
        with self._conn_lock:
            held = self._connections
            self._connections = []
            for owner, connection in held:
                if owner is None or owner.is_alive():
                    self._connections.append((owner, connection))
                else:
                    finished.append(connection)
        for connection in finished:
            self._close_quietly(connection)

    def _close_quietly(self, connection) -> None:
        try:
            connection.close()
        except self._driver_error:  # pragma: no cover - defensive
            pass

    def _thread_connection(self):
        """The calling thread's connection, opened on first use."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            self._release_finished()
            connection = self._register(self._open_worker(),
                                        owner=threading.current_thread())
            self._local.connection = connection
            self._metrics.incr("worker_connections")
        return connection

    @property
    def open_connections(self) -> int:
        """Connections held right now: the primary plus one per live
        thread that has executed a query."""
        self._release_finished()
        with self._conn_lock:
            return len(self._connections)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, schema: MappedSchema, docs, *,
             batch_size: int = DEFAULT_LOAD_BATCH,
             txn_rows: int = DEFAULT_TXN_ROWS,
             resume: bool = False) -> None:
        """Shred the documents and bulk-load every mapped table.

        Rows stream through :func:`repro.mapping.shred_typed_batches`
        in ``batch_size`` chunks fed to ``executemany``, with a commit
        every ``txn_rows`` rows — so peak memory is bounded by the
        batch size, never the document size. A database is loaded
        once: a ``load()`` onto a database that already holds a mapped
        table raises :class:`BackendError`.

        Crash safety: the load maintains a manifest (see the module
        docstring). If the database holds an **interrupted** load — the
        manifest exists but lacks its ``complete`` marker — the default
        is a clean rollback (drop the partial tables, reload
        everything); ``resume=True`` instead skips each table's
        committed watermark and loads only the missing suffix, which
        reproduces the exact rows a crash-free load would have stored
        because shredding is deterministic. After a resumed load,
        ``row_counts`` reports the table totals (committed prefix plus
        the resumed suffix). A manifest whose mode is not ``fresh`` —
        an interrupted append onto a loaded database, which earlier
        versions could run — is refused outright: its rows cannot be
        told apart from the base data, so a rollback would drop both.
        """
        with self.tracer.span("backend.load", backend=self.name) as span:
            faults = active_fault_plan()
            digest = mapping_digest(schema.mapping)
            engine_tables = schema.to_engine_tables()
            self._primary_keys.update(
                (table.name, table.primary_key) for table in engine_tables)
            manifest = self.load_manifest()
            resuming = False
            skip: dict[str, int] = {}
            if manifest is not None and not manifest.complete:
                if manifest.mode != "fresh":
                    raise BackendError(
                        "a previous append-load was interrupted; appended "
                        "rows cannot be distinguished from the base data "
                        "— restore the database file or reload from "
                        "scratch")
                if resume:
                    if manifest.schema_digest != digest:
                        raise BackendError(
                            "cannot resume the interrupted load: it used "
                            "a different mapped schema")
                    skip = dict(manifest.watermarks)
                    resuming = True
                    self._metrics.incr("load_resumes")
                else:
                    self._rollback_incomplete(manifest)
            stored = {table.name: skip.get(table.name, 0)
                      for table in engine_tables}
            if resuming:
                for table in engine_tables:
                    # The crash may have landed between the manifest
                    # header and this table's CREATE.
                    if not self._table_on_disk(table.name):
                        self._create_table(table)
                    self.row_counts[table.name] = stored[table.name]
            else:
                # Conflict check first — nothing is written unless the
                # whole load is admissible.
                for table in engine_tables:
                    if self._table_on_disk(table.name):
                        raise BackendError(
                            f"table {table.name!r} already exists on this "
                            f"backend; load() is one-shot per database — "
                            f"use a fresh backend/database")
                # Header before any CREATE: a crash at any later point
                # leaves a manifest naming every table to roll back.
                self._write_manifest_header(digest, engine_tables)
                for table in engine_tables:
                    self._create_table(table)
            inserts = {table.name: self.dialect.insert_sql(table)
                       for table in engine_tables}
            # BOOLEAN is the one type a dialect may bind differently from
            # the typed row's value; a table without such a column goes
            # to the driver as shredded.
            storable = self.dialect.storable
            booleans = {
                table.name: [at for at, column in enumerate(table.columns)
                             if column.sql_type is SQLType.BOOLEAN]
                for table in engine_tables}
            loaded = pending = 0
            remaining = dict(skip)
            try:
                # The rows are tuples of scalars; see collection_paused.
                with collection_paused():
                    for name, rows in shred_typed_batches(schema, docs,
                                                          batch_size):
                        faults.maybe_raise("backend.load.batch")
                        if remaining.get(name):
                            drop = min(remaining[name], len(rows))
                            remaining[name] -= drop
                            rows = rows[drop:]
                            self._metrics.incr("rows_skipped_on_resume", drop)
                            if not rows:
                                continue
                        if booleans[name]:
                            rows = [_rebound(row, booleans[name], storable)
                                    for row in rows]
                        self._begin_write()
                        self.connection.executemany(inserts[name], rows)
                        stored[name] += len(rows)
                        self.row_counts[name] = (self.row_counts.get(name, 0)
                                                 + len(rows))
                        loaded += len(rows)
                        pending += len(rows)
                        if pending >= txn_rows:
                            # Watermarks ride in the same transaction as the
                            # rows they count — atomically consistent at
                            # every commit point.
                            self._update_watermarks(stored)
                            self._commit_write()
                            self._metrics.incr("load_commits")
                            pending = 0
                self._begin_write()
                self._update_watermarks(stored)
                self._mark_complete()
                self._commit_write()
            except self._driver_error as exc:
                raise BackendError(f"bulk load failed: {exc}") from exc
            span.set("rows", loaded)
            self._metrics.incr("rows_loaded", loaded)

    # ------------------------------------------------------------------
    # Load manifest (crash safety — see the module docstring)
    # ------------------------------------------------------------------
    def load_manifest(self) -> LoadManifest | None:
        """The manifest of the last bulk load, or ``None`` if no
        ``load()`` ever ran against this database."""
        if not self._table_on_disk(MANIFEST_TABLE):
            return None
        try:
            rows = self.connection.execute(
                f'SELECT "key", "value" FROM "{MANIFEST_TABLE}"').fetchall()
        except self._driver_error as exc:
            raise BackendError(
                f"reading the load manifest failed: {exc}") from exc
        entries = {key: value for key, value in rows}
        watermarks = {key[len("rows:"):]: int(value)
                      for key, value in entries.items()
                      if key.startswith("rows:")}
        return LoadManifest(
            schema_digest=str(entries.get("schema", "")),
            mode=str(entries.get("mode", "fresh")),
            complete=str(entries.get("complete", "0")) == "1",
            watermarks=watermarks)

    def _write_manifest_header(self, digest: str, tables) -> None:
        """Commit the manifest naming every table, *before* any CREATE."""
        try:
            self._begin_write()
            self.connection.execute(
                f'CREATE TABLE IF NOT EXISTS "{MANIFEST_TABLE}" '
                f'("key" TEXT PRIMARY KEY, "value" TEXT NOT NULL)')
            self.connection.execute(f'DELETE FROM "{MANIFEST_TABLE}"')
            entries = [("schema", digest), ("mode", "fresh"),
                       ("complete", "0")]
            entries += [(f"rows:{table.name}", "0") for table in tables]
            self.connection.executemany(
                f'INSERT INTO "{MANIFEST_TABLE}" ("key", "value") '
                f'VALUES (?, ?)', entries)
            self._commit_write()
        except self._driver_error as exc:
            raise BackendError(
                f"writing the load manifest failed: {exc}") from exc

    def _update_watermarks(self, stored: dict[str, int]) -> None:
        """Stage watermark updates; the caller's commit makes them live
        atomically with the rows they count."""
        self.connection.executemany(
            f'UPDATE "{MANIFEST_TABLE}" SET "value" = ? WHERE "key" = ?',
            [(str(stored[name]), f"rows:{name}")
             for name in sorted(stored)])

    def _mark_complete(self) -> None:
        self.connection.execute(
            f'UPDATE "{MANIFEST_TABLE}" SET "value" = ? '
            f'WHERE "key" = ?', ("1", "complete"))

    def _rollback_incomplete(self, manifest: LoadManifest) -> None:
        """Drop everything an interrupted fresh load left behind."""
        try:
            self._begin_write()
            for name in sorted(manifest.watermarks):
                self.connection.execute(f'DROP TABLE IF EXISTS "{name}"')
            self.connection.execute(
                f'DROP TABLE IF EXISTS "{MANIFEST_TABLE}"')
            self._commit_write()
        except self._driver_error as exc:
            raise BackendError(
                f"rolling back the interrupted load failed: {exc}") from exc
        for name in manifest.watermarks:
            self.row_counts.pop(name, None)
        self._metrics.incr("load_rollbacks")

    # ------------------------------------------------------------------
    # Table DDL
    # ------------------------------------------------------------------
    def _create_table(self, table) -> None:
        try:
            self.connection.execute(self.dialect.create_table_sql(table))
        except self._driver_error as exc:
            raise BackendError(
                f"creating table {table.name!r} failed: {exc}") from exc
        self.row_counts.setdefault(table.name, 0)
        self._metrics.incr("tables_loaded")

    # ------------------------------------------------------------------
    # Physical design
    # ------------------------------------------------------------------
    def apply_configuration(self, configuration: Configuration) -> None:
        """CREATE INDEX / materialize join views, then ``post_ddl``;
        the views are remembered, so queries are rendered over them
        (:meth:`sql_text`).

        A read-only backend — a tuned database file reopened to serve —
        runs no DDL: it registers the view tables the file holds.
        """
        with self.tracer.span("backend.ddl", backend=self.name,
                              structures=len(configuration)):
            if not self.read_only:
                self._build(configuration)
            self._views = sorted(
                self._views + [view for view in configuration.views
                               if self._holds_view(view)],
                key=lambda view: view.row_width)

    def _build(self, configuration: Configuration) -> None:
        try:
            self._begin_write()
            for view in configuration.views:
                for statement in self.dialect.create_view_table_sql(
                        view, configuration.cluster_of(view)):
                    self.connection.execute(statement)
                self._metrics.incr("views_built")
            for index in configuration.indexes:
                if index.clustered:
                    continue    # built with its view
                self.connection.execute(self.dialect.create_index_sql(
                    index, self._primary_keys.get(index.table_name)))
                self._metrics.incr("indexes_built")
            self._commit_write()
            for statement in self.post_ddl:
                self.connection.execute(statement)
            self._commit_write()
        except self._driver_error as exc:
            raise BackendError(
                f"applying configuration failed: {exc}") from exc

    def _holds_view(self, view: Table) -> bool:
        """Whether the database holds ``view``'s table, column for
        column as defined."""
        return (self._table_on_disk(view.name)
                and [name for name, _ in self.table_columns(view.name)]
                == view.column_names())

    # ------------------------------------------------------------------
    # Execution (the serve path: concurrent, per-thread connections)
    # ------------------------------------------------------------------
    def sql_text(self, query: Query) -> str:
        """``query`` as this backend runs it — the one render site.

        A SELECT that a built join view answers
        (:func:`repro.engine.select_over_view`: its FROM is exactly the
        view's pair, and the view covers its join, filters and items)
        is rendered over the narrowest such view table, the candidate
        the optimizer's page-count cost prefers; every other SELECT
        over its base tables. The rule reads the query and the view
        definitions only, and a configuration without views is the same
        code with nothing to match.
        """
        return self.dialect.render_query(Query(
            tuple(self._over_view(select) for select in query.selects),
            query.order_by))

    def _over_view(self, select: Select) -> Select:
        for view in self._views:
            try:
                return select_over_view(select, view)
            except PlanError:
                continue
        return select

    def execute(self, query: Query | Statement) -> list[tuple]:
        if isinstance(query, Statement):
            return self.execute_sql(query.sql, query.params)
        return self.execute_sql(self.sql_text(query))

    def execute_sql(self, sql: str, params: tuple = ()) -> list[tuple]:
        """Run ``sql``; the driver binds ``params`` to its placeholders
        (:meth:`Dialect.parameter`), so a value never becomes text."""
        active_fault_plan().maybe_raise("backend.execute")
        connection = self._thread_connection()
        with self.tracer.span("backend.query", backend=self.name):
            try:
                rows = connection.execute(sql, params).fetchall()
            except self._driver_error as exc:
                detail = f"{exc}\nSQL: {sql}" + (
                    f"\nparameters: {params!r}" if params else "")
                if self._is_busy(exc):
                    raise BackendBusyError(
                        f"database busy: {detail}") from exc
                raise BackendError(f"query failed: {detail}") from exc
        return self._native_rows(rows)

    def prepare(self, query: Query) -> None:
        """Compile without running (dialect round-trip check)."""
        sql = self.sql_text(query)
        try:
            self._thread_connection().execute(f"EXPLAIN {sql}").fetchall()
        except self._driver_error as exc:
            raise BackendError(
                f"query does not prepare: {exc}\nSQL: {sql}") from exc

    # ------------------------------------------------------------------
    # Timing (the benchmark path: exclusive while measuring)
    # ------------------------------------------------------------------
    def time_query(self, query: Query, repeat: int = 3,
                   warmup: int = 1) -> QueryTiming:
        """Warmup + repetition median timing, exclusive per backend.

        The contract (pinned by tests): all warmup and timed runs
        execute on the calling thread's connection, back to back, with
        no other ``time_query`` interleaved — so the first measured run
        never pays another worker's page-cache eviction. Concurrent
        ``execute`` calls (the serve path) are *not* excluded; a timed
        benchmark under live load is a different experiment and should
        use a dedicated backend.
        """
        sql = self.sql_text(query)
        connection = self._thread_connection()
        with self._timing_lock:
            with self.tracer.span("backend.query", backend=self.name,
                                  timed=True) as span:
                timing = timed_runs(
                    lambda: connection.execute(sql).fetchall(),
                    repeat=repeat, warmup=warmup)
                span.set("seconds", timing.seconds)
                span.set("rows", timing.rows)
        self._metrics.incr("queries_timed")
        return timing

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._conn_lock:
            connections, self._connections = self._connections, []
            self._closed = True
        for _, connection in connections:
            self._close_quietly(connection)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
