"""The execution-backend protocol and the in-memory reference backend.

Everywhere else in this library, "execution time" is the deterministic
cost accumulated by the engine's :class:`~repro.engine.cost.CostCounter`.
The paper's headline numbers (Sec. 1.1, Sec. 7 / Fig. 4), however, are
*measured* wall-clock times on a real DBMS. :class:`SQLBackend` is the
seam that closes that gap: anything that can

1. bulk-load a :class:`~repro.mapping.MappedSchema`'s shredded tables,
2. apply a physical :class:`~repro.physdesign.Configuration`,
3. execute a translated :class:`~repro.sqlast.Query`, and
4. time repeated executions,

can serve as an execution backend. :class:`EngineBackend` adapts the
in-memory engine to the protocol (its "seconds" are cost units);
:class:`repro.backends.sqlite.SQLiteBackend` is the real-DBMS
implementation. The serving layer and the calibration harness are
written against :class:`SQLBackend` only; the comparator
(:mod:`repro.backends.compare`) additionally reads the catalog through
:class:`IntrospectableBackend`, which every bundled backend implements.
"""

from __future__ import annotations

import statistics as _statistics
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, runtime_checkable

from ..engine import Database, SQLType
from ..mapping import MappedSchema, load_documents
from ..obs import NullTracer, Tracer, get_tracer
from ..physdesign import Configuration, materialize
from ..sqlast import Query


@dataclass
class QueryTiming:
    """Wall-clock measurements of one query on one backend."""

    seconds: float                    # the headline number (median run)
    runs: list[float] = field(default_factory=list)
    rows: int = 0

    @property
    def best(self) -> float:
        return min(self.runs) if self.runs else self.seconds


class Statement(NamedTuple):
    """SQL text a backend's dialect rendered once from a parameterised
    query, and the values this execution binds to it — what the serving
    layer hands to a DBMS backend's ``execute`` in place of a
    :class:`~repro.sqlast.Query`, so that neither rendering nor the
    driver's statement compilation is paid per request."""

    sql: str
    params: tuple


@runtime_checkable
class SQLBackend(Protocol):
    """What the validator and calibration harness need from a backend."""

    name: str

    def load(self, schema: MappedSchema, docs) -> None:
        """Shred the documents and bulk-load every mapped table."""
        ...  # pragma: no cover - protocol

    def apply_configuration(self, configuration: Configuration) -> None:
        """Build the physical design (indexes, materialized views)."""
        ...  # pragma: no cover - protocol

    def execute(self, query: Query) -> list[tuple]:
        """Run a translated query and return its rows (in result order)."""
        ...  # pragma: no cover - protocol

    def time_query(self, query: Query, repeat: int = 3,
                   warmup: int = 1) -> QueryTiming:
        """Execute with warmup, then ``repeat`` timed runs."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        ...  # pragma: no cover - protocol


class IntrospectableBackend(SQLBackend, Protocol):
    """What the comparator reads besides query results: the catalog."""

    def table_names_on_disk(self) -> list[str]:
        """Names of the tables physically present (mapped + views)."""
        ...  # pragma: no cover - protocol

    def table_columns(self, name: str) -> list[tuple[str, str]]:
        """``(column name, declared type)`` in declaration order."""
        ...  # pragma: no cover - protocol

    def table_rows(self, name: str) -> list[tuple]:
        """Every row of one table (unordered; callers sort)."""
        ...  # pragma: no cover - protocol

    def index_names(self) -> list[str]:
        """Names of user-created (non-constraint) indexes."""
        ...  # pragma: no cover - protocol

    def declared_type(self, sql_type: SQLType) -> str:
        """The type :meth:`table_columns` shows for a mapped column."""
        ...  # pragma: no cover - protocol

    def sql_text(self, query: Query) -> str:
        """The query as this backend would run it (for reports)."""
        ...  # pragma: no cover - protocol


def timed_runs(run, repeat: int, warmup: int,
               clock=time.perf_counter) -> QueryTiming:
    """Shared warmup/repetition protocol: median of ``repeat`` runs."""
    rows: list[tuple] = []
    for _ in range(max(0, warmup)):
        rows = run()
    runs: list[float] = []
    for _ in range(max(1, repeat)):
        started = clock()
        rows = run()
        runs.append(clock() - started)
    return QueryTiming(seconds=_statistics.median(runs), runs=runs,
                       rows=len(rows))


class EngineBackend:
    """The in-memory cost-model engine behind the backend protocol.

    ``time_query`` reports the deterministic executed *cost* (not
    seconds) so differential runs stay reproducible; the calibration
    harness uses :meth:`estimate`/:meth:`executed_cost` explicitly and
    never mixes the units.
    """

    name = "engine"

    def __init__(self, tracer: Tracer | NullTracer | None = None):
        self.tracer = tracer if tracer is not None else get_tracer()
        self.db = Database(name="engine-backend", tracer=self.tracer)
        self._metrics = self.tracer.metrics("backend.engine")

    def load(self, schema: MappedSchema, docs) -> None:
        with self.tracer.span("backend.load", backend=self.name):
            load_documents(self.db, schema, docs)
            self._metrics.incr("tables_loaded", len(schema.table_names))

    def apply_configuration(self, configuration: Configuration) -> None:
        with self.tracer.span("backend.ddl", backend=self.name,
                              structures=len(configuration)):
            materialize(self.db, configuration)

    def execute(self, query: Query) -> list[tuple]:
        return self.db.execute(query).rows

    def executed_cost(self, query: Query) -> float:
        """Deterministic executed cost (the engine's native measure)."""
        return self.db.execute(query).cost

    def time_query(self, query: Query, repeat: int = 3,
                   warmup: int = 1) -> QueryTiming:
        with self.tracer.span("backend.query", backend=self.name):
            result = self.db.execute(query)
        return QueryTiming(seconds=result.cost, runs=[result.cost],
                           rows=len(result.rows))

    # -- catalog introspection (IntrospectableBackend) -----------------
    def table_names_on_disk(self) -> list[str]:
        return sorted(self.db.catalog.tables)

    def table_columns(self, name: str) -> list[tuple[str, str]]:
        return [(c.name, self.declared_type(c.sql_type))
                for c in self.db.catalog.table(name).columns]

    def table_rows(self, name: str) -> list[tuple]:
        return list(self.db.catalog.table(name).rows or [])

    def index_names(self) -> list[str]:
        # Clustered indexes — the implicit pk_* ones, a clustered view's
        # own — are the tables themselves, the counterpart of what the
        # real engines build for PRIMARY KEY.
        return sorted(name for name, index in self.db.catalog.indexes.items()
                      if not index.clustered)

    def declared_type(self, sql_type: SQLType) -> str:
        return sql_type.name

    def sql_text(self, query: Query) -> str:
        return str(query)

    def close(self) -> None:
        pass
