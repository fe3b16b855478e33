"""The public database facade.

Ties together catalog, statistics, optimizer, and executor:

* DDL: :meth:`Database.create_table`, :meth:`create_index`,
  :meth:`create_materialized_view`
* DML: :meth:`insert_rows`
* Query: :meth:`execute` (runs and *measures* cost),
  :meth:`estimate` (optimizer cost only — works on stats-only tables),
  :meth:`explain`
* What-if: pass ``extra_indexes`` / ``extra_tables`` to :meth:`estimate`
  to cost hypothetical physical designs, as the tuning advisor does.

"Execution time" everywhere in this library means the deterministic cost
accumulated by the executor's :class:`~repro.engine.cost.CostCounter` —
see DESIGN.md for why this substitution preserves the paper's results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CatalogError, ExecutionError
from ..obs import NullTracer, Tracer, get_tracer
from ..sqlast import Query, parse_sql, qualify
from .access_paths import AccessPaths
from .cost import CostCounter
from .index import Index, primary_key_index
from .matview import derive_view_stats, make_view_table, populate_view
from .optimizer import Optimizer, PlannedQuery
from .plans import Runtime
from .schema import Catalog, Column, ForeignKey, JoinViewDefinition, Table
from .statistics import StatisticsCatalog, TableStats


@dataclass
class ExecutionResult:
    """Rows plus the measured cost of producing them."""

    rows: list[tuple]
    cost: float
    counter: CostCounter
    plan: PlannedQuery

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


class Database:
    """An in-memory relational database with a cost-based optimizer."""

    def __init__(self, name: str = "db",
                 tracer: "Tracer | NullTracer | None" = None):
        self.name = name
        self.catalog = Catalog()
        self.stats = StatisticsCatalog()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._metrics = self.tracer.metrics("database")
        # id(query) -> (query, findings); the strong query ref keeps the
        # id stable for the lifetime of the cache entry.
        self._analysis_cache: dict[int, tuple[Query, object]] = {}
        # Scan / seek numbers every plan of this database is costed
        # from, each computed once (see ``access_paths``).
        self.access_paths = AccessPaths(self.stats)

    def __getstate__(self) -> dict:
        """The access-path table stays behind: it is derived, and a
        what-if database is pickled inside every evaluated mapping."""
        state = self.__dict__.copy()
        del state["access_paths"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.access_paths = AccessPaths(self.stats)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: list[Column],
                     foreign_keys: list[ForeignKey] | None = None) -> Table:
        table = Table(name, columns, "ID", foreign_keys)
        return self.catalog.add_table(table)

    def register_table(self, table: Table) -> Table:
        """Add a pre-built (possibly stats-only) table."""
        return self.catalog.add_table(table)

    def create_index(self, name: str, table_name: str,
                     key_columns: list[str],
                     included_columns: list[str] | None = None) -> Index:
        index = Index(name=name, table_name=table_name,
                      key_columns=tuple(key_columns),
                      included_columns=tuple(included_columns or ()))
        self.catalog.add_index(index)
        table = self.catalog.table(table_name)
        if table.is_materialized:
            index.build(table)
        return index

    def create_materialized_view(self, name: str,
                                 definition: JoinViewDefinition) -> Table:
        parent = self.catalog.table(definition.parent_table)
        child = self.catalog.table(definition.child_table)
        view = make_view_table(name, definition, parent, child)
        self.catalog.add_table(view)
        if parent.is_materialized and child.is_materialized:
            populate_view(view, parent, child)
            self.stats.analyze_table(view)
        else:
            self.stats.set_table(name, derive_view_stats(view, self.stats))
        return view

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def insert_rows(self, table_name: str, rows: list[tuple]) -> None:
        table = self.catalog.table(table_name)
        if table.rows is None:
            table.rows = []
        for row in rows:
            table.insert(row)

    def analyze(self, table_name: str | None = None) -> None:
        """(Re)collect statistics and refresh VARCHAR width estimates."""
        tables = ([self.catalog.table(table_name)] if table_name
                  else list(self.catalog.tables.values()))
        for table in tables:
            if not table.is_materialized:
                continue
            stats = self.stats.analyze_table(table)
            for column in table.columns:
                column_stats = stats.column(column.name)
                if column_stats is not None and column_stats.avg_width:
                    column.avg_width = column_stats.avg_width

    def set_table_stats(self, table_name: str, stats: TableStats) -> None:
        """Install externally derived statistics (stats-only tables)."""
        table = self.catalog.table(table_name)
        table.row_count_estimate = stats.row_count
        for column in table.columns:
            column_stats = stats.column(column.name)
            if column_stats is not None and column_stats.avg_width:
                column.avg_width = column_stats.avg_width
        self.stats.set_table(table_name, stats)

    def build_primary_key_indexes(self) -> None:
        """Create (and build) the implicit clustered PK index per table."""
        for table in self.catalog.base_tables():
            if table.primary_key is None:
                continue
            name = f"pk_{table.name}"
            if name in self.catalog.indexes:
                continue
            index = primary_key_index(table)
            self.catalog.add_index(index)
            if table.is_materialized:
                index.build(table)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _as_query(self, query: Query | str) -> Query:
        """Parsed if text, and every column name qualified: the
        optimizer and the advisor resolve no names of their own."""
        if isinstance(query, str):
            query = parse_sql(query)
        return qualify(
            query, lambda name: self.catalog.table(name).column_names())

    def _run_checks(self, query: Query, planned: PlannedQuery,
                    optimizer: Optimizer) -> None:
        """Debug-mode assertions: SQL analysis + plan sanitation.

        SQL analysis is memoized per query object — the tuning advisor
        re-estimates the same ``Query`` values thousands of times per
        search, and their semantics never change; the plan sanitizer
        always runs (and so builds the plan) because each call plans
        afresh.
        """
        from ..check import analyze_query, check_plan, enforce

        cached = self._analysis_cache.get(id(query))
        if cached is None or cached[0] is not query:
            findings = analyze_query(query, self.catalog,
                                     optimizer.extra_tables)
            self._analysis_cache[id(query)] = (query, findings)
        else:
            findings = cached[1]
        findings = findings + check_plan(
            query, planned, self.catalog,
            extra_indexes=optimizer.extra_indexes,
            extra_tables=optimizer.extra_tables.values(),
            what_if=optimizer.what_if)
        enforce(findings, self.tracer, context=f"db:{self.name}")

    def _plan(self, query: Query | str, optimizer: Optimizer) -> PlannedQuery:
        from ..check.runtime import checks_enabled

        query = self._as_query(query)
        planned = optimizer.plan(query)
        if checks_enabled():
            self._run_checks(query, planned, optimizer)
        return planned

    def explain(self, query: Query | str) -> PlannedQuery:
        return self._plan(query, Optimizer(self.catalog, self.stats,
                                           self.access_paths))

    def what_if(self, extra_indexes: list[Index] | None = None,
                extra_tables: list[Table] | None = None) -> Optimizer:
        """The optimizer for one hypothetical configuration: hand it to
        :meth:`estimate_under` to cost any number of queries under it
        while the catalog stands as it is."""
        return Optimizer(self.catalog, self.stats, self.access_paths,
                         what_if=True, extra_indexes=extra_indexes,
                         extra_tables=extra_tables)

    def estimate(self, query: Query | str,
                 extra_indexes: list[Index] | None = None,
                 extra_tables: list[Table] | None = None) -> PlannedQuery:
        """Optimizer-estimated cost; supports hypothetical objects."""
        return self.estimate_under(self.what_if(extra_indexes, extra_tables),
                                   query)

    def estimate_under(self, optimizer: Optimizer,
                       query: Query | str) -> PlannedQuery:
        """One what-if optimizer call under :meth:`what_if`'s objects."""
        from ..resilience import active_fault_plan

        active_fault_plan().maybe_raise("whatif")
        self._metrics.incr("estimate_calls")
        return self._plan(query, optimizer)

    def execute(self, query: Query | str) -> ExecutionResult:
        """Plan with built objects only, run, and measure cost."""
        planned = self.explain(query)
        counter = CostCounter()
        runtime = Runtime(self.catalog, counter)
        planned.prepare(runtime)
        rows = list(planned.root.execute_tuples(runtime))
        return ExecutionResult(rows=rows, cost=counter.total,
                               counter=counter, plan=planned)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Database {self.name!r} tables={len(self.catalog.tables)} "
                f"indexes={len(self.catalog.indexes)}>")
