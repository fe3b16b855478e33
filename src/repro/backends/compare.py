"""Cross-backend comparator: do two executors agree on *everything*?

Do translated queries return the same rows on both? is one question
(:func:`check_queries`, the differential oracle: any cost-model
shortcut, translation bug, or executor semantics drift that changes
*results* shows up there). This module asks it of the whole database
state two backends build from the same logical + physical design, and
turns the answer into a deterministic, machine-checkable report the CI
gate can fail on:

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
* **indexes** — the user-created index name sets match.
* **views** — on each backend, every join-view table of the
  configuration holds exactly the rows its definition yields over the
  base tables *now* (a view table is a snapshot that queries are
  rendered over, so a stale one is a wrong answer; the join is
  re-evaluated here, independently of the DDL that built the table).
* **queries** — every workload query executes on both backends and the
  row *multisets* must match (the engine only guarantees order up to
  the ORDER BY key, so equal-key rows may legally interleave
  differently); a mismatch carries the query's SQL and sample
  missing/extra rows — enough to turn it into a regression test.
* **timings** (optional, ``include_timings=True``) — measured medians
  per query on both backends. Wall-clock is inherently noisy, so this
  check is advisory and always OK, and it is **off by default**
  precisely so that two runs of the same comparison render
  byte-identical reports.

A check is OK or MISMATCH; MISMATCH means "the backends disagree on
data or semantics" and fails the gate. See docs/backends.md ("Backend
matrix") for the report format.

Entry points, from most to least assembled: :func:`compare_datasets`
(bundled dataset + design name), :func:`compare_design` (a schema, a
configuration and documents: create both backends, load, apply,
compare, close), :func:`compare_loaded` (two backends the caller
already loaded). Backends are read through
:class:`~repro.backends.base.IntrospectableBackend` only, so a third
backend needs no change here.
"""

from __future__ import annotations

import decimal
import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..datasets import DEFAULT_STORAGE_BOUND, DatasetBundle
from ..engine import Table
from ..mapping import MappedSchema
from ..obs import NullTracer, Tracer, get_tracer
from ..physdesign import Configuration
from ..search import design_for
from ..sqlast import Query
from .base import EngineBackend, IntrospectableBackend
from .dbms import MANIFEST_TABLE

__all__ = ["CheckResult", "CompareReport", "check_queries",
           "compare_loaded", "compare_design", "compare_datasets",
           "loaded_backend", "backend_factory", "known_backends",
           "normalize_row", "multiset_diff", "OK", "MISMATCH"]

OK = "OK"
MISMATCH = "MISMATCH"

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
        return MISMATCH if self.mismatches() else OK

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


@contextmanager
def loaded_backend(name: str, schema: MappedSchema,
                   configuration: Configuration, docs,
                   tracer: Tracer | NullTracer | None = None):
    """A fresh backend ``name`` holding the design: create it, load the
    documents, build the configuration; closed on exit."""
    backend = backend_factory(name)(tracer=tracer)
    try:
        backend.load(schema, docs)
        backend.apply_configuration(configuration)
        yield backend
    finally:
        backend.close()


# ----------------------------------------------------------------------
# Row normalization
# ----------------------------------------------------------------------

def normalize_row(row: tuple) -> tuple:
    """Collapse representation differences that are not semantic.

    * booleans — the engine yields Python bools, SQLite yields 0/1;
    * decimals — DuckDB returns ``DECIMAL`` columns as
      :class:`decimal.Decimal`, the engine and SQLite carry floats;
    * integral floats — a REAL column round-trips ``3.0`` while the
      engine may carry the original int through an untyped slot.
    """
    out = []
    for value in row:
        if isinstance(value, bool):
            out.append(int(value))
            continue
        if isinstance(value, decimal.Decimal):
            value = float(value)
        if isinstance(value, float) and value.is_integer():
            out.append(int(value))
        else:
            out.append(value)
    return tuple(out)


def multiset_diff(reference_rows: list[tuple],
                  candidate_rows: list[tuple]
                  ) -> tuple[list[tuple], list[tuple]]:
    """(missing, extra) of candidate vs reference, as normalized rows."""
    reference = Counter(normalize_row(r) for r in reference_rows)
    candidate = Counter(normalize_row(r) for r in candidate_rows)
    missing = list((reference - candidate).elements())
    extra = list((candidate - reference).elements())
    return missing, extra


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

def _check_tables(a: IntrospectableBackend, b: IntrospectableBackend
                  ) -> tuple[CheckResult, list[str]]:
    # The load manifest is bookkeeping of the real DBMSs, not design.
    names_a, names_b = ([n for n in backend.table_names_on_disk()
                         if n != MANIFEST_TABLE] for backend in (a, b))
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


def _check_columns(a: IntrospectableBackend, b: IntrospectableBackend,
                   common: list[str],
                   schema: MappedSchema | None) -> CheckResult:
    problems: list[str] = []
    matrix: dict[str, list[dict]] = {}
    mapped = ({table.name: table.columns
               for table in schema.to_engine_tables()}
              if schema is not None else {})
    for name in common:
        cols_a, cols_b = a.table_columns(name), b.table_columns(name)
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
        for backend, cols in ((a, cols_a), (b, cols_b)):
            for (col, declared), column in zip(cols, mapped.get(name, [])):
                exp_type = backend.declared_type(column.sql_type)
                if (col == column.name
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


def _check_rows(a: IntrospectableBackend, b: IntrospectableBackend,
                common: list[str]) -> CheckResult:
    digests: dict[str, dict] = {}
    bad: list[str] = []
    samples: dict[str, dict] = {}
    for name in common:
        rows_a, rows_b = a.table_rows(name), b.table_rows(name)
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


def _check_indexes(a: IntrospectableBackend,
                   b: IntrospectableBackend) -> CheckResult:
    names_a, names_b = a.index_names(), b.index_names()
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


def _view_rows_now(backend: IntrospectableBackend,
                   view: Table) -> list[tuple]:
    """``view``'s definition evaluated over ``backend``'s base tables."""
    definition = view.view_def
    assert definition is not None
    parent, child = definition.parent_table, definition.child_table
    position = {table: {column: at for at, (column, _)
                        in enumerate(backend.table_columns(table))}
                for table in (parent, child)}
    parents = {row[position[parent]["ID"]]: row
               for row in backend.table_rows(parent)}
    fk = position[child][definition.child_fk_column]
    picks = [(table == parent, position[table][column])
             for _, (table, column) in definition.columns]
    return [tuple(parents[row[fk]][at] if from_parent else row[at]
                  for from_parent, at in picks)
            for row in backend.table_rows(child) if row[fk] in parents]


def _check_views(a: IntrospectableBackend, b: IntrospectableBackend,
                 configuration: Configuration) -> CheckResult:
    digests: dict[str, dict] = {}
    bad: list[str] = []
    samples: dict[str, dict] = {}
    for side, backend in (("a", a), ("b", b)):
        for view in configuration.views:
            stored = backend.table_rows(view.name)
            now = _view_rows_now(backend, view)
            count, digest = _row_digest(stored)
            digests.setdefault(view.name, {}).update(
                {f"{side}_rows": count, f"{side}_digest": digest})
            if (count, digest) != _row_digest(now):
                missing, extra = multiset_diff(now, stored)
                bad.append(f"view {view.name!r} on {backend.name}: "
                           f"{count} rows stored, {len(now)} by "
                           f"definition ({len(missing)} missing / "
                           f"{len(extra)} extra)")
                samples[f"{side}:{view.name}"] = {
                    "missing": _sample(missing), "extra": _sample(extra)}
    if bad:
        return CheckResult("views", MISMATCH, "; ".join(bad),
                           {"views": digests, "samples": samples})
    return CheckResult("views", OK,
                       f"{len(configuration.views)} view tables hold their "
                       f"definitions' rows on both backends",
                       {"views": digests})


def check_queries(a: IntrospectableBackend, b: IntrospectableBackend,
                  queries: list[Query]) -> CheckResult:
    """Run each query on both (already loaded) backends; the row
    multisets must match. The differential oracle on its own."""
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
            sql = a.sql_text(query)
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


def _check_timings(a: IntrospectableBackend, b: IntrospectableBackend,
                   queries: list[Query], repeat: int,
                   warmup: int) -> CheckResult:
    timings: list[dict] = []
    for index, query in enumerate(queries):
        seconds_a = a.time_query(query, repeat=repeat,
                                 warmup=warmup).seconds
        seconds_b = b.time_query(query, repeat=repeat,
                                 warmup=warmup).seconds
        timings.append({"query": index, "a_seconds": seconds_a,
                        "b_seconds": seconds_b})
    # Wall-clock comparisons are advisory by construction: OK, so a
    # slow CI runner can never turn into a gate failure — and this
    # check is excluded entirely unless asked for, to keep the report
    # deterministic.
    return CheckResult("timings", OK,
                       f"measured {len(queries)} queries on both "
                       f"backends (advisory)", {"timings": timings})


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def compare_loaded(a: IntrospectableBackend, b: IntrospectableBackend,
                   queries: list[Query], *,
                   schema: MappedSchema | None = None,
                   configuration: Configuration | None = None,
                   include_timings: bool = False,
                   timing_repeat: int = 3, timing_warmup: int = 1,
                   context: dict | None = None,
                   tracer: Tracer | NullTracer | None = None
                   ) -> CompareReport:
    """Compare two *already loaded and configured* backends.

    Pass the :class:`~repro.mapping.MappedSchema` both were loaded
    with to enable the per-dialect declared-type check; without it the
    columns check still verifies name parity. Pass the
    :class:`~repro.physdesign.Configuration` both were given to enable
    the views check.
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
        if configuration is not None:
            report.checks.append(_check_views(a, b, configuration))
        report.checks.append(check_queries(a, b, queries))
        if include_timings:
            report.checks.append(_check_timings(a, b, queries,
                                                timing_repeat,
                                                timing_warmup))
        span.set("status", report.status)
    return report


def compare_design(schema: MappedSchema, configuration: Configuration,
                   docs, queries: list[Query],
                   backend_a: str = "engine", backend_b: str = "sqlite", *,
                   include_timings: bool = False,
                   context: dict | None = None,
                   tracer: Tracer | NullTracer | None = None
                   ) -> CompareReport:
    """Load two fresh backends with one design and compare them.

    Both are created by name, loaded from the same documents, given
    the same configuration, compared with every check, and closed.
    The defaults make it the engine-vs-SQLite oracle.
    """
    with (loaded_backend(backend_a, schema, configuration, docs, tracer) as a,
          loaded_backend(backend_b, schema, configuration, docs, tracer) as b):
        return compare_loaded(a, b, queries, schema=schema,
                              configuration=configuration,
                              include_timings=include_timings,
                              context=context, tracer=tracer)


def compare_datasets(dataset: str = "dblp", design: str = "hybrid",
                     backend_a: str = "sqlite", backend_b: str = "duckdb",
                     *, scale: int = 60, seed: int = 7,
                     workload_size: int = 6, workload_seed: int = 3,
                     storage_bound: int = DEFAULT_STORAGE_BOUND,
                     include_timings: bool = False,
                     tracer: Tracer | NullTracer | None = None
                     ) -> CompareReport:
    """Build, load, and compare two backends end to end.

    The one-call form the CLI and the CI gate use: generate the
    bundled dataset and a workload, get the design from
    :func:`repro.search.design_for` (a mapping preset tuned by the
    advisor, or a search such as ``greedy``), and hand it to
    :func:`compare_design`.
    """
    bundle = DatasetBundle.named(dataset, scale, seed, storage_bound)
    workload = bundle.workload_generator(workload_seed).generate(
        workload_size)
    result = design_for(design, bundle.tree, workload, bundle.stats,
                        bundle.storage_bound)
    return compare_design(
        result.schema, result.configuration, bundle.docs,
        [query for query, _ in result.sql_queries], backend_a, backend_b,
        include_timings=include_timings, tracer=tracer,
        context={"dataset": dataset, "design": design, "scale": scale,
                 "seed": seed, "workload": workload_size})
