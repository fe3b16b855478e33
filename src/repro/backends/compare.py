"""Cross-backend comparator: do two executors agree on *everything*?

The differential validator (:mod:`repro.backends.diff`) answers one
question — do translated queries return the same rows? This module
widens the lens to the whole database state two backends build from
the same logical + physical design, and turns the answer into a
deterministic, machine-checkable report the CI gate can fail on:

* **schema.tables** — the physical table sets match (mapped tables
  plus materialized join views; the load manifest is excluded).
* **schema.columns** — per table, the column name sequence matches,
  and each backend's *declared* column types match what its dialect
  promises for the mapped schema (a type-affinity drift on either
  side names the offending table and column).
* **rows** — per table, the row multisets match (compared as a sorted
  digest of normalized rows, so gigarow tables don't need to cross a
  process boundary; a mismatch re-diffs the multisets and names the
  table with sample missing/extra rows).
* **indexes** — the user-created index name sets match (REVIEW when a
  backend cannot enumerate indexes).
* **queries** — the folded-in differential validator: every workload
  query executes on both backends and the row multisets must match.
* **timings** (optional, ``include_timings=True``) — measured medians
  per query on both backends. Wall-clock is inherently noisy, so this
  check can only ever be OK or REVIEW — never MISMATCH — and it is
  **off by default** precisely so that two runs of the same comparison
  render byte-identical reports.

Statuses escalate ``OK < REVIEW < MISMATCH``: REVIEW means "a human
should look" (non-comparable metadata, suspicious timing skew);
MISMATCH means "the backends disagree on data or semantics" and fails
the gate. See docs/backends.md ("Backend matrix") for the report
format.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..datasets import named_dataset
from ..mapping import (MappedSchema, collect_statistics, derive_schema,
                       fully_split, hybrid_inlining, shared_inlining)
from ..obs import NullTracer, Tracer, get_tracer
from ..sqlast import Query
from .base import EngineBackend, SQLBackend
from .dbms import MANIFEST_TABLE, RelationalBackend
from .diff import multiset_diff, normalize_row

__all__ = ["CheckResult", "CompareReport", "compare_loaded",
           "compare_datasets", "backend_factory", "known_backends",
           "OK", "REVIEW", "MISMATCH"]

OK = "OK"
REVIEW = "REVIEW"
MISMATCH = "MISMATCH"

_SEVERITY = {OK: 0, REVIEW: 1, MISMATCH: 2}

#: Mapping presets the dataset-level comparison understands, plus
#: ``greedy`` (the tuned joint search) handled separately.
PRESETS = {
    "hybrid": hybrid_inlining,
    "shared": shared_inlining,
    "fully-split": fully_split,
}

DESIGNS = tuple(sorted(PRESETS)) + ("greedy",)

_SAMPLE_ROWS = 5


@dataclass
class CheckResult:
    """One comparator check: a status plus enough data to act on it."""

    name: str
    status: str
    detail: str
    data: dict = field(default_factory=dict)


@dataclass
class CompareReport:
    """Outcome of one full cross-backend comparison."""

    backend_a: str
    backend_b: str
    context: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def status(self) -> str:
        worst = OK
        for check in self.checks:
            if _SEVERITY[check.status] > _SEVERITY[worst]:
                worst = check.status
        return worst

    @property
    def ok(self) -> bool:
        return self.status == OK

    def mismatches(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == MISMATCH]

    def describe(self) -> str:
        where = " ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
        head = (f"compare {self.backend_a} vs {self.backend_b}"
                + (f" [{where}]" if where else "")
                + f": {self.status}")
        lines = [head]
        for check in self.checks:
            lines.append(f"  {check.status:8s} {check.name}: {check.detail}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "backend_a": self.backend_a,
            "backend_b": self.backend_b,
            "context": dict(self.context),
            "status": self.status,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail,
                 "data": c.data}
                for c in self.checks
            ],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True,
                          default=str)


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------

def known_backends() -> tuple[str, ...]:
    return ("engine", "sqlite", "duckdb")


def backend_factory(name: str):
    """Constructor for a backend by CLI name.

    The duckdb factory resolves even without the driver installed —
    *calling* it then raises the backend's clear
    :class:`~repro.backends.dbms.BackendError`, which the CLI and
    tests turn into a skip.
    """
    if name == "engine":
        return EngineBackend
    if name == "sqlite":
        from .sqlite import SQLiteBackend
        return SQLiteBackend
    if name == "duckdb":
        from .duckdb import DuckDBBackend
        return DuckDBBackend
    raise ValueError(
        f"unknown backend {name!r} (known: {', '.join(known_backends())})")


# ----------------------------------------------------------------------
# Introspection adapters (RelationalBackend hooks; engine catalog)
# ----------------------------------------------------------------------

def _table_names(backend: SQLBackend) -> list[str]:
    if isinstance(backend, RelationalBackend):
        return sorted(n for n in backend.table_names_on_disk()
                      if n != MANIFEST_TABLE)
    if isinstance(backend, EngineBackend):
        return sorted(backend.db.catalog.tables)
    raise TypeError(f"cannot introspect tables of {backend!r}")


def _columns_of(backend: SQLBackend, name: str) -> list[tuple[str, str]]:
    if isinstance(backend, RelationalBackend):
        return backend.table_columns(name)
    table = backend.db.catalog.table(name)  # type: ignore[union-attr]
    return [(c.name, c.sql_type.name) for c in table.columns]


def _rows_of(backend: SQLBackend, name: str) -> list[tuple]:
    if isinstance(backend, RelationalBackend):
        return backend.table_rows(name)
    table = backend.db.catalog.table(name)  # type: ignore[union-attr]
    return list(table.rows or [])


def _index_names(backend: SQLBackend) -> list[str] | None:
    if isinstance(backend, RelationalBackend):
        return backend.index_names()
    if isinstance(backend, EngineBackend):
        # pk_* indexes are the engine's implicit primary keys, the
        # counterpart of what the real engines build for PRIMARY KEY.
        return sorted(n for n in backend.db.catalog.indexes
                      if not n.startswith("pk_"))
    return None


def _expected_types(backend: SQLBackend,
                    schema: MappedSchema) -> dict[str, list[tuple[str, str]]]:
    """table -> [(column, declared type the backend should show)]."""
    if isinstance(backend, RelationalBackend):
        dialect = backend.dialect
        return {table.name: [(c.name, dialect.type_name(c.sql_type))
                             for c in table.columns]
                for table in schema.to_engine_tables()}
    return {table.name: [(c.name, c.sql_type.name)
                         for c in table.columns]
            for table in schema.to_engine_tables()}


def _canon_type(declared: str) -> str:
    return declared.replace(" ", "").upper()


def _sortable(value) -> tuple:
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        return (1, float(value))
    return (2, str(value))


def _row_digest(rows: list[tuple]) -> tuple[int, str]:
    """(count, sha1 over the sorted normalized multiset)."""
    normalized = sorted((normalize_row(r) for r in rows),
                        key=lambda row: tuple(_sortable(v) for v in row))
    digest = hashlib.sha1()
    for row in normalized:
        digest.update(repr(row).encode("utf-8"))
        digest.update(b"\x00")
    return len(normalized), digest.hexdigest()


def _sample(rows: list[tuple]) -> list[list]:
    return [list(row) for row in rows[:_SAMPLE_ROWS]]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def _check_tables(a: SQLBackend, b: SQLBackend) -> tuple[CheckResult,
                                                         list[str]]:
    names_a, names_b = _table_names(a), _table_names(b)
    only_a = sorted(set(names_a) - set(names_b))
    only_b = sorted(set(names_b) - set(names_a))
    common = sorted(set(names_a) & set(names_b))
    if only_a or only_b:
        detail = (f"table sets differ: only in {a.name}: {only_a or '[]'}; "
                  f"only in {b.name}: {only_b or '[]'}")
        return CheckResult("schema.tables", MISMATCH, detail,
                           {"only_a": only_a, "only_b": only_b,
                            "common": common}), common
    return CheckResult("schema.tables", OK,
                       f"{len(common)} tables on both backends",
                       {"common": common}), common


def _check_columns(a: SQLBackend, b: SQLBackend, common: list[str],
                   schema: MappedSchema | None) -> CheckResult:
    problems: list[str] = []
    matrix: dict[str, list[dict]] = {}
    expected_a = _expected_types(a, schema) if schema is not None else {}
    expected_b = _expected_types(b, schema) if schema is not None else {}
    for name in common:
        cols_a, cols_b = _columns_of(a, name), _columns_of(b, name)
        matrix[name] = [
            {"column": col, "a": typ_a, "b": typ_b}
            for (col, typ_a), (_, typ_b) in zip(cols_a, cols_b)
        ] if len(cols_a) == len(cols_b) else [
            {"a_columns": [c for c, _ in cols_a],
             "b_columns": [c for c, _ in cols_b]}]
        if [c for c, _ in cols_a] != [c for c, _ in cols_b]:
            problems.append(f"table {name!r}: column names differ "
                            f"({[c for c, _ in cols_a]} vs "
                            f"{[c for c, _ in cols_b]})")
            continue
        for backend, cols, expected in ((a, cols_a, expected_a),
                                        (b, cols_b, expected_b)):
            for (col, declared), (exp_col, exp_type) in zip(
                    cols, expected.get(name, [])):
                if (col == exp_col
                        and _canon_type(declared) != _canon_type(exp_type)):
                    problems.append(
                        f"table {name!r} column {col!r}: {backend.name} "
                        f"declares {declared!r}, dialect expects "
                        f"{exp_type!r}")
    if problems:
        return CheckResult("schema.columns", MISMATCH,
                           "; ".join(problems[:4])
                           + ("" if len(problems) <= 4
                              else f" (+{len(problems) - 4} more)"),
                           {"problems": problems, "matrix": matrix})
    return CheckResult("schema.columns", OK,
                       f"column names and declared types line up on "
                       f"{len(common)} tables", {"matrix": matrix})


def _check_rows(a: SQLBackend, b: SQLBackend,
                common: list[str]) -> CheckResult:
    digests: dict[str, dict] = {}
    bad: list[str] = []
    samples: dict[str, dict] = {}
    for name in common:
        rows_a, rows_b = _rows_of(a, name), _rows_of(b, name)
        count_a, digest_a = _row_digest(rows_a)
        count_b, digest_b = _row_digest(rows_b)
        digests[name] = {"a_rows": count_a, "b_rows": count_b,
                         "a_digest": digest_a, "b_digest": digest_b}
        if (count_a, digest_a) != (count_b, digest_b):
            missing, extra = multiset_diff(rows_a, rows_b)
            bad.append(f"table {name!r}: {count_a} vs {count_b} rows, "
                       f"{len(missing)} missing / {len(extra)} extra "
                       f"in {b.name}")
            samples[name] = {"missing": _sample(missing),
                             "extra": _sample(extra)}
    if bad:
        return CheckResult("rows", MISMATCH, "; ".join(bad),
                           {"tables": digests, "samples": samples})
    total = sum(entry["a_rows"] for entry in digests.values())
    return CheckResult("rows", OK,
                       f"row multisets match on {len(common)} tables "
                       f"({total} rows)", {"tables": digests})


def _check_indexes(a: SQLBackend, b: SQLBackend) -> CheckResult:
    names_a, names_b = _index_names(a), _index_names(b)
    if names_a is None or names_b is None:
        missing = a.name if names_a is None else b.name
        return CheckResult("indexes", REVIEW,
                           f"{missing} cannot enumerate indexes",
                           {"a": names_a, "b": names_b})
    only_a = sorted(set(names_a) - set(names_b))
    only_b = sorted(set(names_b) - set(names_a))
    if only_a or only_b:
        return CheckResult(
            "indexes", MISMATCH,
            f"index sets differ: only in {a.name}: {only_a or '[]'}; "
            f"only in {b.name}: {only_b or '[]'}",
            {"only_a": only_a, "only_b": only_b})
    return CheckResult("indexes", OK,
                       f"{len(names_a)} indexes on both backends",
                       {"names": sorted(names_a)})


def _check_queries(a: SQLBackend, b: SQLBackend,
                   queries: list[Query]) -> CheckResult:
    results: list[dict] = []
    bad: list[str] = []
    for index, query in enumerate(queries):
        rows_a = a.execute(query)
        rows_b = b.execute(query)
        count_a, digest_a = _row_digest(rows_a)
        count_b, digest_b = _row_digest(rows_b)
        entry = {"query": index, "a_rows": count_a, "b_rows": count_b,
                 "a_digest": digest_a, "b_digest": digest_b}
        if (count_a, digest_a) != (count_b, digest_b):
            missing, extra = multiset_diff(rows_a, rows_b)
            sql = (a.sql_text(query) if hasattr(a, "sql_text")
                   else str(query))
            bad.append(f"query #{index}: {count_a} vs {count_b} rows "
                       f"({sql})")
            entry["missing"] = _sample(missing)
            entry["extra"] = _sample(extra)
            entry["sql"] = sql
        results.append(entry)
    if bad:
        return CheckResult("queries", MISMATCH, "; ".join(bad),
                           {"queries": results})
    return CheckResult("queries", OK,
                       f"{len(queries)} workload queries agree",
                       {"queries": results})


def _check_timings(a: SQLBackend, b: SQLBackend, queries: list[Query],
                   repeat: int, warmup: int) -> CheckResult:
    timings: list[dict] = []
    for index, query in enumerate(queries):
        seconds_a = a.time_query(query, repeat=repeat,
                                 warmup=warmup).seconds
        seconds_b = b.time_query(query, repeat=repeat,
                                 warmup=warmup).seconds
        timings.append({"query": index, "a_seconds": seconds_a,
                        "b_seconds": seconds_b})
    # Wall-clock comparisons are advisory by construction: REVIEW, so
    # a slow CI runner can never turn into a gate failure — and this
    # check is excluded entirely unless asked for, to keep the report
    # deterministic.
    return CheckResult("timings", REVIEW,
                       f"measured {len(queries)} queries on both "
                       f"backends (advisory)", {"timings": timings})


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def compare_loaded(a: SQLBackend, b: SQLBackend, queries: list[Query], *,
                   schema: MappedSchema | None = None,
                   include_timings: bool = False,
                   timing_repeat: int = 3, timing_warmup: int = 1,
                   context: dict | None = None,
                   tracer: Tracer | NullTracer | None = None
                   ) -> CompareReport:
    """Compare two *already loaded and configured* backends.

    Pass the :class:`~repro.mapping.MappedSchema` both were loaded
    with to enable the per-dialect declared-type check; without it the
    columns check still verifies name parity.
    """
    tracer = tracer if tracer is not None else get_tracer()
    report = CompareReport(backend_a=a.name, backend_b=b.name,
                           context=dict(context or {}))
    with tracer.span("backend.compare", a=a.name, b=b.name,
                     queries=len(queries)) as span:
        tables_check, common = _check_tables(a, b)
        report.checks.append(tables_check)
        report.checks.append(_check_columns(a, b, common, schema))
        report.checks.append(_check_rows(a, b, common))
        report.checks.append(_check_indexes(a, b))
        report.checks.append(_check_queries(a, b, queries))
        if include_timings:
            report.checks.append(_check_timings(a, b, queries,
                                                timing_repeat,
                                                timing_warmup))
        span.set("status", report.status)
    return report


def _design_for(design: str, tree, docs, workload_size: int,
                workload_seed: int, storage_bound: int):
    """(schema, configuration, translated queries) for one design."""
    from ..physdesign import Configuration
    from ..search import GreedySearch, MappingEvaluator
    from ..translate import Translator
    from ..workload import WorkloadGenerator
    stats = collect_statistics(tree, docs)
    workload = WorkloadGenerator(tree, stats,
                                 seed=workload_seed).generate(workload_size)
    if design == "greedy":
        result = GreedySearch(tree, workload, stats,
                              storage_bound=storage_bound).run()
        return (result.schema, result.configuration,
                [query for query, _ in result.sql_queries])
    if design not in PRESETS:
        raise ValueError(f"unknown design {design!r} "
                         f"(known: {', '.join(DESIGNS)})")
    mapping = PRESETS[design](tree)
    evaluated = MappingEvaluator(workload, stats,
                                 storage_bound).evaluate(mapping)
    if evaluated is not None:
        return (evaluated.schema, evaluated.tuning.configuration,
                [query for query, _ in evaluated.sql_queries])
    # Infeasible under the bound: compare the bare logical design.
    schema = derive_schema(mapping)
    translator = Translator(schema)
    queries = [translator.translate(w.query) for w in workload.queries]
    return schema, Configuration(), queries


def compare_datasets(dataset: str = "dblp", design: str = "hybrid",
                     backend_a: str = "sqlite", backend_b: str = "duckdb",
                     *, scale: int = 60, seed: int = 7,
                     workload_size: int = 6, workload_seed: int = 3,
                     storage_bound: int = 512 * 1024 * 1024,
                     include_timings: bool = False,
                     tracer: Tracer | NullTracer | None = None
                     ) -> CompareReport:
    """Build, load, and compare two backends end to end.

    The one-call form the CLI and the CI gate use: generate the
    bundled dataset, derive the design (a mapping preset tuned by the
    evaluator, or the full greedy search), load both backends from the
    same documents, apply the same configuration, and run every
    comparator check.
    """
    tree, docs = named_dataset(dataset, scale, seed)
    schema, configuration, queries = _design_for(
        design, tree, docs, workload_size, workload_seed, storage_bound)
    factory_a, factory_b = backend_factory(backend_a), \
        backend_factory(backend_b)
    context = {"dataset": dataset, "design": design, "scale": scale,
               "seed": seed, "workload": workload_size}
    a = factory_a(tracer=tracer)
    try:
        b = factory_b(tracer=tracer)
        try:
            a.load(schema, docs)
            b.load(schema, docs)
            a.apply_configuration(configuration)
            b.apply_configuration(configuration)
            return compare_loaded(a, b, queries, schema=schema,
                                  include_timings=include_timings,
                                  context=context, tracer=tracer)
        finally:
            b.close()
    finally:
        a.close()
