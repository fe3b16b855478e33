"""Comparator tests: mismatch injection, determinism, and the
DuckDB-gated backend-matrix checks.

Each injection plants exactly one class of divergence into one of two
otherwise-identical SQLite backends and asserts the comparator
surfaces it as MISMATCH with the offending table/query named. The
DuckDB tests skip cleanly when the optional driver is absent — CI's
``backend-matrix`` job installs it and runs them for real.
"""

import re

import pytest

from repro.backends import (DUCKDB, BackendError, DuckDBBackend,
                            EngineBackend, QueryTiming, SQLBackend,
                            SQLiteBackend, check_queries, compare_datasets,
                            compare_design, duckdb_available)
from repro.backends.compare import (MISMATCH, OK, backend_factory,
                                    compare_loaded, known_backends)
from repro.cli import build_parser
from repro.datasets import DatasetBundle, dblp_schema, generate_dblp
from repro.engine import SQLType
from repro.engine.matview import derive_view_stats
from repro.mapping import (PRESETS, collect_statistics, derive_schema,
                           hybrid_inlining, shred_typed_rows)
from repro.physdesign import Configuration
from repro.search import build_stats_only_database, design_for
from repro.sqlast import ColumnRef, Query, Select, SelectItem, TableRef
from repro.translate import Translator
from repro.workload import WorkloadGenerator

SCALE = 30
SEED = 7


@pytest.fixture(scope="module")
def dblp_small():
    tree = dblp_schema()
    docs = generate_dblp(SCALE, seed=SEED)
    schema = derive_schema(hybrid_inlining(tree))
    stats = collect_statistics(tree, docs)
    workload = WorkloadGenerator(tree, stats, seed=3).generate(4)
    translator = Translator(schema)
    queries = [translator.translate(w.query) for w in workload.queries]
    return schema, docs, queries


def _fresh_pair(dblp_small):
    """Two independent SQLite backends loaded identically."""
    schema, docs, queries = dblp_small
    a, b = SQLiteBackend(), SQLiteBackend()
    a.load(schema, docs)
    b.load(schema, docs)
    a.apply_configuration(Configuration())
    b.apply_configuration(Configuration())
    return schema, a, b, queries


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def _probe_table(backend):
    """(table, first column) of some non-empty table — deterministic
    because table names are sorted."""
    for name in backend.table_names_on_disk():
        if name.startswith("_"):
            continue
        if backend.table_rows(name):
            return name, backend.table_columns(name)[0][0]
    raise AssertionError("no populated table to inject into")


class TestMismatchInjection:
    def test_dropped_row_names_table(self, dblp_small):
        schema, a, b, queries = _fresh_pair(dblp_small)
        try:
            table, _ = _probe_table(b)
            quoted = b.dialect.quote(table)
            b.execute_sql(f"DELETE FROM {quoted} WHERE rowid IN "
                          f"(SELECT rowid FROM {quoted} LIMIT 1)")
            report = compare_loaded(a, b, queries, schema=schema)
            rows = _check(report, "rows")
            assert report.status == MISMATCH
            assert rows.status == MISMATCH
            assert table in rows.detail
            assert rows.data["samples"][table]["missing"]
        finally:
            a.close()
            b.close()

    def test_type_drift_names_table_and_column(self, dblp_small):
        schema, a, b, queries = _fresh_pair(dblp_small)
        try:
            table, _ = _probe_table(b)
            columns = b.table_columns(table)
            drifted = columns[0][0]
            quoted = b.dialect.quote(table)
            # Rebuild the table with the first column's declared type
            # drifted to BLOB (affinity NONE, so the stored values stay
            # byte-identical — only the declaration diverges).
            decls = ", ".join(
                f'{b.dialect.quote(col)} '
                f'{"BLOB" if col == drifted else typ}'
                for col, typ in columns)
            b.execute_sql(f'ALTER TABLE {quoted} RENAME TO "_drift_old"')
            b.execute_sql(f"CREATE TABLE {quoted} ({decls})")
            b.execute_sql(f'INSERT INTO {quoted} '
                          f'SELECT * FROM "_drift_old"')
            b.execute_sql('DROP TABLE "_drift_old"')
            report = compare_loaded(a, b, queries, schema=schema)
            check = _check(report, "schema.columns")
            assert report.status == MISMATCH
            assert check.status == MISMATCH
            assert table in check.detail and drifted in check.detail
        finally:
            a.close()
            b.close()

    def test_extra_index_names_index(self, dblp_small):
        schema, a, b, queries = _fresh_pair(dblp_small)
        try:
            table, column = _probe_table(b)
            b.execute_sql(
                f'CREATE INDEX "extra_probe_idx" ON '
                f'{b.dialect.quote(table)}({b.dialect.quote(column)})')
            report = compare_loaded(a, b, queries, schema=schema)
            check = _check(report, "indexes")
            assert report.status == MISMATCH
            assert check.status == MISMATCH
            assert "extra_probe_idx" in check.detail
            assert "extra_probe_idx" in check.data["only_b"]
        finally:
            a.close()
            b.close()

    def test_wrong_query_result_names_query(self, dblp_small):
        schema, a, b, _ = _fresh_pair(dblp_small)
        try:
            table, column = _probe_table(b)
            probe = Query(selects=(Select(
                items=(SelectItem(ColumnRef("T", column)),),
                from_tables=(TableRef(table=table, alias="T"),)),))
            assert b.execute(probe), "probe query must return rows"
            # The probe column is the INTEGER PRIMARY KEY, so shift it
            # instead of stringifying (a text value is rejected).
            b.execute_sql(
                f"UPDATE {b.dialect.quote(table)} "
                f"SET {b.dialect.quote(column)} = "
                f"{b.dialect.quote(column)} + 1000000")
            report = compare_loaded(a, b, [probe], schema=schema)
            check = _check(report, "queries")
            assert check.status == MISMATCH
            assert "query #0" in check.detail
            assert check.data["queries"][0]["sql"]
        finally:
            a.close()
            b.close()

    def test_identical_backends_ok_deterministically_twice(self,
                                                           dblp_small):
        schema, a, b, queries = _fresh_pair(dblp_small)
        try:
            first = compare_loaded(a, b, queries, schema=schema,
                                   context={"dataset": "dblp"})
            second = compare_loaded(a, b, queries, schema=schema,
                                    context={"dataset": "dblp"})
            assert first.status == OK and first.ok
            assert first.describe() == second.describe()
            assert first.to_json_text() == second.to_json_text()
            assert {c.name for c in first.checks} == {
                "schema.tables", "schema.columns", "rows", "indexes",
                "queries"}
        finally:
            a.close()
            b.close()

    def test_engine_vs_sqlite_ok(self, dblp_small):
        schema, docs, queries = dblp_small
        engine = EngineBackend()
        engine.load(schema, docs)
        engine.apply_configuration(Configuration())
        with SQLiteBackend() as sqlite_backend:
            sqlite_backend.load(schema, docs)
            sqlite_backend.apply_configuration(Configuration())
            report = compare_loaded(engine, sqlite_backend, queries,
                                    schema=schema)
        assert report.status == OK, report.describe()

    def test_a_third_backend_needs_only_the_protocols(self, dblp_small):
        """Nothing in the comparator names a backend class: a stranger
        that implements SQLBackend plus the introspection methods (and
        shares no base with the bundled ones) compares like any other."""
        schema, docs, queries = dblp_small

        class DictBackend:
            name = "dict"

            def __init__(self):
                self.oracle = EngineBackend()
                self.tables = {}

            def load(self, schema, docs):
                self.oracle.load(schema, docs)
                self.columns = {
                    t.name: [(c.name, c.sql_type.name.lower())
                             for c in t.columns]
                    for t in schema.to_engine_tables()}
                self.tables = {name: [] for name in self.columns}
                for name, rows in shred_typed_rows(schema, docs).items():
                    self.tables[name] = list(rows)

            def apply_configuration(self, configuration):
                pass

            def execute(self, query):
                return list(reversed(self.oracle.execute(query)))

            def time_query(self, query, repeat=3, warmup=1):
                return QueryTiming(0.0, rows=len(self.execute(query)))

            def close(self):
                pass

            def table_names_on_disk(self):
                return list(self.tables)

            def table_columns(self, name):
                return self.columns[name]

            def table_rows(self, name):
                return self.tables[name]

            def index_names(self):
                return []

            def declared_type(self, sql_type):
                return sql_type.name.lower()

            def sql_text(self, query):
                return "(dict)"

        third = DictBackend()
        assert isinstance(third, SQLBackend)
        third.load(schema, docs)
        with SQLiteBackend() as sqlite_backend:
            sqlite_backend.load(schema, docs)
            for a, b in ((third, sqlite_backend), (sqlite_backend, third)):
                report = compare_loaded(a, b, queries, schema=schema)
                assert report.status == OK, report.describe()
                assert {report.backend_a, report.backend_b} == {
                    "dict", "sqlite"}
            # ... and its own lies are still caught.
            third.tables[next(iter(third.tables))].append((0,))
            assert compare_loaded(third, sqlite_backend, queries,
                                  schema=schema).status == MISMATCH


class TestRegistry:
    def test_known_backends(self):
        assert known_backends() == ("engine", "sqlite", "duckdb")

    def test_factories_resolve(self):
        for name in known_backends():
            assert callable(backend_factory(name))
        with pytest.raises(ValueError):
            backend_factory("oracle")

    def test_designs_cover_presets_plus_greedy(self):
        parser = build_parser()
        for design in [*PRESETS, "greedy"]:
            args = parser.parse_args(["compare", "--design", design])
            assert args.design == [design]
        with pytest.raises(SystemExit):
            parser.parse_args(["compare", "--design", "two-step"])


class TestCompareDatasets:
    def test_engine_vs_sqlite_hybrid_ok(self):
        report = compare_datasets("dblp", "hybrid", "engine", "sqlite",
                                  scale=SCALE, workload_size=4)
        assert report.status == OK, report.describe()
        assert report.context["dataset"] == "dblp"
        assert report.context["design"] == "hybrid"

    def test_unknown_dataset_and_design_raise(self):
        with pytest.raises(ValueError):
            compare_datasets("web", "hybrid", "engine", "sqlite")
        with pytest.raises(ValueError):
            compare_datasets("dblp", "zigzag", "engine", "sqlite",
                            scale=SCALE)


class TestDuckDBDialect:
    """Renderer divergences documented in docs/backends.md — these run
    without the driver installed."""

    def test_decimal_stays_decimal(self):
        assert DUCKDB.type_name(SQLType.DECIMAL) == "DECIMAL(18, 6)"

    def test_boolean_stays_boolean(self):
        assert DUCKDB.type_name(SQLType.BOOLEAN) == "BOOLEAN"

    def test_integer_widens_to_bigint(self):
        assert DUCKDB.type_name(SQLType.INTEGER) == "BIGINT"

    def test_boolean_literals_render_as_keywords(self):
        from repro.sqlast import Literal
        assert DUCKDB.literal(Literal(True)) == "TRUE"
        assert DUCKDB.literal(Literal(False)) == "FALSE"
        assert DUCKDB.literal(Literal(None)) == "NULL"


@pytest.mark.skipif(duckdb_available(), reason="duckdb installed")
class TestDuckDBMissing:
    def test_constructor_raises_clear_backend_error(self):
        with pytest.raises(BackendError, match="duckdb"):
            DuckDBBackend()


@pytest.mark.skipif(not duckdb_available(), reason="duckdb not installed")
class TestDuckDBBackend:
    """The backend-matrix gate proper: only runs with duckdb installed
    (the CI ``backend-matrix`` job)."""

    def test_protocol_conformance(self):
        with DuckDBBackend() as backend:
            assert isinstance(backend, SQLBackend)
            assert backend.name == "duckdb"

    def test_differential_validator_vs_engine(self, dblp_small):
        schema, docs, queries = dblp_small
        engine = EngineBackend()
        engine.load(schema, docs)
        with DuckDBBackend() as duck:
            duck.load(schema, docs)
            engine.apply_configuration(Configuration())
            duck.apply_configuration(Configuration())
            check = check_queries(engine, duck, queries)
        assert check.status == OK, check.detail
        assert len(check.data["queries"]) == len(queries)

    @pytest.mark.parametrize("design", sorted(PRESETS))
    def test_sqlite_vs_duckdb_presets_ok(self, design):
        report = compare_datasets("dblp", design, "sqlite", "duckdb",
                                  scale=SCALE, workload_size=4)
        assert report.status == OK, report.describe()

    def test_validate_design_accepts_duckdb_rows(self, dblp_small):
        # The one-call oracle: engine vs sqlite stays the default pair,
        # but duckdb rows normalize identically (Decimal -> float,
        # BOOLEAN -> int).
        schema, docs, queries = dblp_small
        report = compare_design(schema, Configuration(), docs, queries)
        assert report.status == OK, report.describe()
        queries_check = _check(report, "queries")
        assert len(queries_check.data["queries"]) == len(queries)


# ----------------------------------------------------------------------
# The backend reads the join views it builds
# ----------------------------------------------------------------------
CELLS = [(dataset, design) for dataset in ("dblp", "movie")
         for design in ("greedy", "hybrid")]


@pytest.fixture(scope="module")
def tuned_cells():
    """(bundle, design) per dataset x {searched, tuned hybrid}: the
    setting ROADMAP item 1 was measured in (every design holds views)."""
    cells = {}
    for dataset in ("dblp", "movie"):
        bundle = DatasetBundle.named(dataset, scale=400, seed=SEED)
        workload = bundle.workload_generator(41).generate(10)
        for design in ("greedy", "hybrid"):
            cells[dataset, design] = bundle, design_for(
                design, bundle.tree, workload, bundle.stats,
                bundle.storage_bound)
    return cells


@pytest.fixture(scope="module")
def clustered_cells():
    """design -> (bundle, result) on DBLP under a workload that filters
    on NOT NULL columns (``booktitle``), so its views are clustered."""
    bundle = DatasetBundle.named("dblp", scale=400, seed=SEED)
    workload = bundle.workload_generator(SEED).generate(10)
    return {design: (bundle, design_for(design, bundle.tree, workload,
                                        bundle.stats, bundle.storage_bound))
            for design in ("greedy", "hybrid")}


def _engine_plans(bundle, result):
    """Per workload statement, the engine's plan under the design."""
    config = result.configuration
    db = build_stats_only_database(result.schema, bundle.stats)
    db.build_primary_key_indexes()
    for view in config.views:
        db.stats.set_table(view.name, derive_view_stats(view, db.stats))
    for query, _ in result.sql_queries:
        yield query, db.estimate(query, config.indexes, config.views)


def _views_used(bundle, result):
    """Per workload SELECT, the views of the engine's chosen plan — the
    paper's I(Q, M), branch by branch."""
    names = {view.name for view in result.configuration.views}
    for query, planned in _engine_plans(bundle, result):
        for select, branch in zip(query.selects, planned.branch_plans):
            yield select, branch.objects_used() & names


def _assert_views_read(bundle, result, backend_name: str) -> None:
    """Every view of I(Q, M) is the one its SELECT is rendered over and
    the one SQLite reads, and no other view is rendered."""
    config = result.configuration
    views = [view.name for view in config.views]
    assert views, "the cell is meant to hold views"
    pairs = converse = 0
    with backend_factory(backend_name)() as backend:
        backend.load(result.schema, bundle.docs)
        backend.apply_configuration(config)
        for select, used in _views_used(bundle, result):
            text = backend.sql_text(Query((select,)))
            rendered = {name for name in views if f'FROM "{name}"' in text}
            assert used <= rendered, (used, text)
            pairs += len(used)
            converse += len(rendered - used)
            if backend_name != "sqlite" or not rendered:
                continue
            # The view is aliased by its own name, which is what
            # SQLite's plan prints; the child table is in neither.
            plan = [row[-1] for row in backend.execute_sql(
                f"EXPLAIN QUERY PLAN {text}")]
            (name,) = rendered
            assert text.split(" FROM ")[1].split(" WHERE ")[0] == \
                f'"{name}"'
            assert len(plan) == 1 and plan[0].split()[1] == name, plan
    assert pairs >= 2
    # A view rendered that the engine's plan did not use.
    assert converse == 0


#: A seek on equalities alone: ``SEARCH T USING … (a=? AND b=?)``.
_EQUALITY_SEEK = re.compile(r"SEARCH .*\(([^=<>()\s]+=\? AND )*"
                            r"[^=<>()\s]+=\?\)$")


def _assert_indexes_read(bundle, result) -> tuple[int, int]:
    """Statement by statement, ``ORDER BY`` included: every index of the
    engine's plan is one SQLite's plan names, and a branch SQLite
    answers with equality seeks alone needs no sort — the seek delivers
    ``ID`` order, as the engine's index does. Returns the (statement,
    index) pairs and the equality-seek branches checked."""
    names = {index.name for index in result.configuration.indexes
             if not index.clustered}     # a view's cluster is the view
    pairs = seeks = 0
    with SQLiteBackend() as backend:
        backend.load(result.schema, bundle.docs)
        backend.apply_configuration(result.configuration)
        for query, planned in _engine_plans(bundle, result):
            text = backend.sql_text(query)
            plan = backend.execute_sql(f"EXPLAIN QUERY PLAN {text}")
            read = {words[words.index("INDEX") + 1]
                    for words in (row[-1].split() for row in plan)
                    if "INDEX" in words}
            used = planned.objects_used() & names
            assert used <= read, (used, text, plan)
            pairs += len(used)
            for parent in {row[1] for row in plan}:
                branch = [row[-1] for row in plan if row[1] == parent]
                access = [step for step in branch
                          if step.startswith(("SCAN", "SEARCH"))]
                if access and all(_EQUALITY_SEEK.match(step)
                                  for step in access):
                    seeks += 1
                    assert not any(step.startswith("USE TEMP B-TREE")
                                   for step in branch), (text, plan)
    return pairs, seeks


class TestBackendReadsItsIndexes:
    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_every_index_of_the_plan_is_read(self, tuned_cells, cell):
        bundle, result = tuned_cells[cell]
        pairs, _ = _assert_indexes_read(bundle, result)
        assert pairs or not any(not index.clustered
                                for index in result.configuration.indexes)

    @pytest.mark.parametrize("design", ["greedy", "hybrid"])
    def test_an_equality_seek_needs_no_sort(self, clustered_cells, design):
        pairs, seeks = _assert_indexes_read(*clustered_cells[design])
        assert pairs and seeks


class TestBackendReadsItsViews:
    @pytest.mark.parametrize("backend_name", [
        "sqlite",
        pytest.param("duckdb", marks=pytest.mark.skipif(
            not duckdb_available(), reason="duckdb not installed"))])
    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_every_view_of_iqm_is_rendered_and_read(self, tuned_cells, cell,
                                                    backend_name):
        _assert_views_read(*tuned_cells[cell], backend_name)

    @pytest.mark.parametrize("design", ["greedy", "hybrid"])
    def test_a_clustered_view_is_entered_by_its_primary_key(
            self, clustered_cells, design):
        """The whole statement, ``ORDER BY`` included: each branch over
        a clustered view is a ``SEARCH … USING PRIMARY KEY`` that needs
        no sort — the workload's predicates are equalities, and the
        key's next column after them is the ``ID`` the statement is
        ordered by."""
        bundle, result = clustered_cells[design]
        _assert_views_read(bundle, result, "sqlite")
        clustered = [index.name for index in result.configuration.indexes
                     if index.clustered]
        assert clustered, "the cell is meant to hold clustered views"
        entered = set()
        with SQLiteBackend() as backend:
            backend.load(result.schema, bundle.docs)
            backend.apply_configuration(result.configuration)
            for query, _ in result.sql_queries:
                text = backend.sql_text(query)
                plan = backend.execute_sql(f"EXPLAIN QUERY PLAN {text}")
                for _, parent, _, detail in plan:
                    words = detail.split()
                    if len(words) < 2 or words[1] not in clustered:
                        continue
                    assert detail.startswith(
                        f"SEARCH {words[1]} USING PRIMARY KEY ("), (text, plan)
                    branch = [row[-1] for row in plan if row[1] == parent]
                    assert not any(step.startswith("USE TEMP B-TREE")
                                   for step in branch), (text, plan)
                    entered.add(words[1])
        assert entered == set(clustered)

    def test_a_stale_view_table_is_a_mismatch(self, clustered_cells):
        bundle, result = clustered_cells["hybrid"]
        config = result.configuration
        cluster = next(index for index in config.indexes if index.clustered)
        queries = [query for query, _ in result.sql_queries]
        with SQLiteBackend() as a, SQLiteBackend() as b:
            for backend in (a, b):
                backend.load(result.schema, bundle.docs)
                backend.apply_configuration(config)
            # A WITHOUT ROWID table has no rowid: delete by the key's
            # last column, the child ID, which is unique.
            quoted = b.dialect.quote(cluster.name)
            child_id = b.dialect.quote(cluster.key_columns[-1])
            b.execute_sql(f"DELETE FROM {quoted} WHERE {child_id} = "
                          f"(SELECT MIN({child_id}) FROM {quoted})")
            b.connection.commit()
            report = compare_loaded(a, b, queries, schema=result.schema,
                                    configuration=config)
        views = _check(report, "views")
        assert views.status == MISMATCH and cluster.name in views.detail
        assert views.data["samples"][f"b:{cluster.name}"]["missing"]

