"""Cross-backend tests: the SQLite backend, dialect round-trips,
the engine-vs-SQLite oracle (the comparator's ``queries`` check), and
executor-divergence regression tests.

The divergence regression tests in ``TestComparatorRegression`` were
written against the *observed* disagreement before the fix landed (see
the class docstring); they pin the engine to SQLite's semantics.
"""

import pytest

from repro.backends import (SQLITE, CalibrationReport, CheckResult,
                            EngineBackend, QueryTiming, SQLBackend,
                            SQLiteBackend, check_queries, compare_design,
                            multiset_diff, normalize_row, render_query,
                            run_calibration, spearman, timed_runs)
from repro.backends.compare import OK
from repro.backends.sqlite import BackendError
from repro.check.runtime import override_checks
from repro.datasets import (dblp_schema, generate_dblp, generate_movies,
                            movie_schema)
from repro.engine import (Column, Index, JoinViewDefinition, SQLType, Table,
                          make_view_table)
from repro.engine.expressions import _comparator
from repro.experiments import DatasetBundle
from repro.mapping import (PRESETS, collect_statistics, derive_schema,
                           fully_split, hybrid_inlining)
from repro.physdesign import CandidateGenerator, Configuration
from repro.search import GreedySearch, build_stats_only_database, design_for
from repro.sqlast import (ColumnRef, Comparison, ComparisonOp, IsNull,
                          Literal, Or, Query, Select, SelectItem, TableRef)
from repro.translate import Translator
from repro.workload import WorkloadGenerator
from repro.xmlkit import parse
from repro.xpath import parse_xpath
from repro.xsd import BaseType, TreeBuilder

SCALE = 60
SEED = 7


def _assert_backends_agree(report, queries):
    """Status OK, and the ``queries`` check covered every query."""
    assert report.status == OK, report.describe()
    check = next(c for c in report.checks if c.name == "queries")
    assert len(check.data["queries"]) == len(queries)


@pytest.fixture(scope="module")
def dblp_data():
    tree = dblp_schema()
    return tree, generate_dblp(SCALE, seed=SEED)


@pytest.fixture(scope="module")
def movie_data():
    tree = movie_schema()
    return tree, generate_movies(SCALE, seed=SEED)


@pytest.fixture(scope="module")
def hybrid_pair(dblp_data):
    """Engine + SQLite loaded with the same shredded DBLP data."""
    tree, docs = dblp_data
    schema = derive_schema(hybrid_inlining(tree))
    engine = EngineBackend()
    engine.load(schema, docs)
    sqlite_backend = SQLiteBackend()
    sqlite_backend.load(schema, docs)
    yield schema, engine, sqlite_backend
    sqlite_backend.close()


def _translate(schema, xpath: str) -> Query:
    return Translator(schema).translate(parse_xpath(xpath))


def _author_view(schema, name: str, *parent_columns: str) -> Table:
    """``inproc JOIN author`` of the hybrid DBLP schema, carrying the
    named ``inproc`` columns and ``author``'s ``ID`` and ``author``."""
    tables = {table.name: table for table in schema.to_engine_tables()}
    definition = JoinViewDefinition("inproc", "author", "PID", tuple(
        [(column, ("inproc", column)) for column in parent_columns]
        + [(column, ("author", column)) for column in ("ID", "author")]))
    return make_view_table(name, definition, tables["inproc"],
                           tables["author"])


def _agree(engine, sqlite_backend, query: Query) -> tuple[int, int]:
    engine_rows = engine.execute(query)
    sqlite_rows = sqlite_backend.execute(query)
    missing, extra = multiset_diff(engine_rows, sqlite_rows)
    assert not missing and not extra, (
        f"backends diverge on {render_query(query)}: "
        f"missing={missing[:3]} extra={extra[:3]}")
    return len(engine_rows), len(sqlite_rows)


class TestComparatorRegression:
    """Regression tests for the confirmed executor/SQLite divergence.

    Before the fix, the engine's comparator fell back to *textual*
    comparison when cross-type float coercion failed, so
    ``year < '!x'`` on an INTEGER column matched nothing (``"1995" >
    "!x"`` textually) while SQLite — which orders the INTEGER storage
    class strictly below TEXT — matched every row. The engine's own
    index key order (``encode_key``) already put numbers below text, so
    index seeks and sequential-scan filters disagreed *within* the
    engine too. The comparator now follows ``encode_key``.
    """

    def test_integer_column_below_nonnumeric_text(self, hybrid_pair):
        schema, engine, sqlite_backend = hybrid_pair
        query = _translate(schema, '//inproceedings[year < "!x"]/title')
        # The static analyzer rightly lints this as SQL005 (mixed type
        # families); here the mixed comparison is the point.
        with override_checks(False):
            n_engine, _ = _agree(engine, sqlite_backend, query)
        # Every row has a year, and numbers sort below text: all match.
        assert n_engine > 0

    def test_integer_column_never_ge_nonnumeric_text(self, hybrid_pair):
        schema, engine, sqlite_backend = hybrid_pair
        query = _translate(schema, '//inproceedings[year >= "!x"]/title')
        with override_checks(False):
            n_engine, n_sqlite = _agree(engine, sqlite_backend, query)
        assert n_engine == 0 and n_sqlite == 0

    def test_comparator_orders_numbers_below_text(self):
        assert _comparator(ComparisonOp.LT)(1995, "!x")
        assert not _comparator(ComparisonOp.GE)(1995, "!x")
        assert not _comparator(ComparisonOp.EQ)(1995, "!x")
        assert _comparator(ComparisonOp.NE)(1995, "!x")
        assert _comparator(ComparisonOp.GT)("!x", 1995)

    def test_comparator_still_coerces_numeric_strings(self):
        assert _comparator(ComparisonOp.EQ)(1999, "1999.0")
        assert _comparator(ComparisonOp.LT)(1999, "2000")

    def test_comparator_null_always_false(self):
        for op in ComparisonOp:
            assert not _comparator(op)(None, 1)
            assert not _comparator(op)("x", None)
            assert not _comparator(op)(None, None)

    def test_null_literal_comparison_matches_sqlite(self, hybrid_pair):
        schema, engine, sqlite_backend = hybrid_pair
        table = schema.to_engine_tables()[0]
        column = table.columns[-1].name
        query = Query(selects=(Select(
            items=(SelectItem(ColumnRef("T", column)),),
            from_tables=(TableRef(table.name, "T"),),
            where=Comparison(ColumnRef("T", column), ComparisonOp.EQ,
                             Literal(None))),))
        n_engine, n_sqlite = _agree(engine, sqlite_backend, query)
        assert n_engine == 0 and n_sqlite == 0


class TestDialectRoundTrip:
    """render_query output must prepare (and run) on real sqlite3."""

    def test_all_comparison_ops_prepare(self, hybrid_pair):
        schema, _, sqlite_backend = hybrid_pair
        for op in ComparisonOp:
            query = _translate(schema, '//inproceedings[year = "1999"]/title')
            select = query.selects[0]
            rewritten = Query(
                selects=(Select(
                    items=select.items,
                    from_tables=select.from_tables,
                    where=Comparison(ColumnRef("", "year"), op,
                                     Literal(1999))),)
                + query.selects[1:],
                order_by=query.order_by)
            sqlite_backend.prepare(rewritten)

    def test_literal_variants_prepare(self, hybrid_pair):
        schema, _, sqlite_backend = hybrid_pair
        table = schema.to_engine_tables()[0]
        column = table.columns[0].name
        for value in (None, True, False, 0, -3, 2.5, 1e300,
                      "it's quoted", ""):
            query = Query(selects=(Select(
                items=(SelectItem(ColumnRef("T", column)),),
                from_tables=(TableRef(table.name, "T"),),
                where=Comparison(ColumnRef("T", column), ComparisonOp.NE,
                                 Literal(value))),))
            sqlite_backend.prepare(query)

    def test_isnull_both_polarities(self, hybrid_pair):
        schema, engine, sqlite_backend = hybrid_pair
        table = schema.to_engine_tables()[0]
        column = table.columns[-1].name
        for negated in (False, True):
            query = Query(selects=(Select(
                items=(SelectItem(ColumnRef("T", column)),),
                from_tables=(TableRef(table.name, "T"),),
                where=IsNull(ColumnRef("T", column), negated=negated)),))
            _agree(engine, sqlite_backend, query)

    def test_or_of_comparisons(self, hybrid_pair):
        schema, engine, sqlite_backend = hybrid_pair
        base = _translate(schema, '//inproceedings[year = "1999"]/title')
        select = base.selects[0]
        where = Or(items=(
            Comparison(ColumnRef("", "year"), ComparisonOp.EQ, Literal(1999)),
            Comparison(ColumnRef("", "year"), ComparisonOp.EQ, Literal(2000)),
        ))
        query = Query(
            selects=(Select(items=select.items,
                            from_tables=select.from_tables,
                            where=where),) + base.selects[1:],
            order_by=base.order_by)
        sqlite_backend.prepare(query)

    def test_exists_probe_runs_on_both(self, hybrid_pair):
        # Existence predicates translate to EXISTS + IS NULL probes and
        # exercise And as well — the full boolean vocabulary at once.
        schema, engine, sqlite_backend = hybrid_pair
        query = _translate(schema, '//inproceedings[author]/title')
        n_engine, _ = _agree(engine, sqlite_backend, query)
        assert n_engine > 0

    def test_union_all_with_order_by(self, hybrid_pair):
        schema, engine, sqlite_backend = hybrid_pair
        query = _translate(
            schema,
            '/dblp/inproceedings[booktitle = "SIGMOD CONFERENCE"]'
            '/(title | year | author)')
        assert len(query.selects) > 1 and query.order_by
        assert "UNION ALL" in render_query(query)
        _agree(engine, sqlite_backend, query)

    def test_generated_workload_prepares_on_all_presets(self, dblp_data):
        tree, docs = dblp_data
        stats = collect_statistics(tree, docs)
        workload = WorkloadGenerator(tree, stats, seed=11).generate(8)
        for label, preset in PRESETS.items():
            schema = derive_schema(preset(tree))
            translator = Translator(schema)
            with SQLiteBackend() as backend:
                backend.load(schema, docs)
                for weighted in workload.queries:
                    backend.prepare(translator.translate(weighted.query))

    def test_quote_identifier_doubles_quotes(self):
        assert SQLITE.quote('a"b') == '"a""b"'
        assert SQLITE.quote("order") == '"order"'

    def test_ddl_keywords_and_includes(self):
        table = Table(name="order", columns=[
            Column("ID", SQLType.INTEGER),
            Column("group", SQLType.VARCHAR),
            Column("when", SQLType.DATE),
        ], primary_key="ID")
        ddl = SQLITE.create_table_sql(table)
        assert '"order"' in ddl and '"group"' in ddl and '"when"' in ddl
        assert "PRIMARY KEY" in ddl
        # DATE columns get TEXT affinity: the engine stores them as
        # strings and NUMERIC affinity would re-type year-like values.
        assert "TEXT" in ddl
        index = Index(name="ix", table_name="order",
                      key_columns=("group",), included_columns=("when",))
        index_sql = SQLITE.create_index_sql(index, table.primary_key)
        # SQLite has no INCLUDE clause: included columns join the key,
        # after the row ID, so equal keys come out in ID order.
        assert '("group", "ID", "when")' in index_sql
        # A plain index is ordered by rowid already; a key that names
        # the ID does not repeat it.
        plain = Index(name="ix", table_name="order", key_columns=("group",))
        assert SQLITE.create_index_sql(plain, "ID").endswith('("group")')
        keyed = Index(name="ix", table_name="order",
                      key_columns=("group", "ID"), included_columns=("when",))
        assert SQLITE.create_index_sql(keyed, "ID").endswith(
            '("group", "ID", "when")')
        assert SQLITE.insert_sql(table).count("?") == 3


class TestDifferentialSuite:
    """Every translated query agrees on both backends, across datasets,
    mapping presets, and tuned physical designs."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_dblp_presets_agree(self, dblp_data, preset):
        tree, docs = dblp_data
        stats = collect_statistics(tree, docs)
        schema = derive_schema(PRESETS[preset](tree))
        translator = Translator(schema)
        workload = WorkloadGenerator(tree, stats, seed=3).generate(6)
        queries = [translator.translate(w.query) for w in workload.queries]
        report = compare_design(schema, Configuration(), docs, queries)
        _assert_backends_agree(report, queries)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_movie_presets_agree(self, movie_data, preset):
        tree, docs = movie_data
        stats = collect_statistics(tree, docs)
        schema = derive_schema(PRESETS[preset](tree))
        translator = Translator(schema)
        workload = WorkloadGenerator(tree, stats, seed=5).generate(6)
        queries = [translator.translate(w.query) for w in workload.queries]
        report = compare_design(schema, Configuration(), docs, queries)
        _assert_backends_agree(report, queries)

    def test_tuned_greedy_design_agrees(self, dblp_data):
        # Real CREATE INDEX + populated view tables must not change
        # results, only speed.
        tree, docs = dblp_data
        stats = collect_statistics(tree, docs)
        workload = WorkloadGenerator(tree, stats, seed=3).generate(6)
        result = design_for("greedy", tree, workload, stats,
                            storage_bound=512 * 1024 * 1024)
        queries = [query for query, _ in result.sql_queries]
        report = compare_design(result.schema, result.configuration,
                                docs, queries)
        _assert_backends_agree(report, queries)

    def test_divergence_report_shape(self, hybrid_pair):
        schema, engine, sqlite_backend = hybrid_pair
        query = _translate(schema, '//inproceedings/title')
        check = check_queries(engine, sqlite_backend, [query])
        assert isinstance(check, CheckResult)
        assert check.status == OK and "1 workload queries agree" in check.detail
        [entry] = check.data["queries"]
        assert entry["a_rows"] == entry["b_rows"] > 0
        assert "missing" not in entry and "sql" not in entry
        # ... and a divergence carries the SQL and the offending rows.
        sqlite_backend.execute = lambda q: engine.execute(q)[1:]
        try:
            check = check_queries(engine, sqlite_backend, [query])
        finally:
            del sqlite_backend.execute
        [entry] = check.data["queries"]
        assert check.status != OK and "query #0" in check.detail
        assert len(entry["missing"]) == 1 and not entry["extra"]
        assert entry["sql"] == engine.sql_text(query)


class TestMultisetDiff:
    def test_normalize_collapses_bool_and_integral_float(self):
        assert normalize_row((True, 3.0, "x", 2.5)) == (1, 3, "x", 2.5)

    def test_diff_is_order_insensitive(self):
        a = [(1, "a"), (2, "b"), (2, "b")]
        b = [(2, "b"), (1, "a"), (2, "b")]
        assert multiset_diff(a, b) == ([], [])

    def test_diff_reports_multiplicity(self):
        missing, extra = multiset_diff([(1,), (1,)], [(1,), (2,)])
        assert missing == [(1,)] and extra == [(2,)]


class TestBackendBasics:
    def test_protocol_conformance(self):
        assert isinstance(SQLiteBackend(), SQLBackend)
        assert isinstance(EngineBackend(), SQLBackend)

    def test_row_counts_match_engine(self, hybrid_pair):
        schema, engine, sqlite_backend = hybrid_pair
        for table in schema.to_engine_tables():
            engine_table = engine.db.catalog.table(table.name)
            (count,), = sqlite_backend.execute_sql(
                f'SELECT COUNT(*) FROM "{table.name}"')
            assert count == len(engine_table.rows or [])

    def test_load_rebinds_boolean_columns_and_nothing_else(self):
        # The dialect's storable() sees the values of BOOLEAN columns —
        # once each — and no other column's; SQLite stores them 1 / 0.
        b = TreeBuilder("flags")
        flags = b.tag("flags", annotation="flags")
        item = b.tag("item", b.rep(flags), annotation="item")
        b.attribute("hot", item, BaseType.BOOLEAN)
        b.leaf("name", item)
        b.optional_leaf("on", item, BaseType.BOOLEAN)
        b.repeated_leaf("tag", item, annotation="tag")
        tree = b.build(flags)
        doc = parse(
            "<flags><item hot='true'><name>a</name><on>false</on>"
            "<tag>t</tag></item><item><name>true</name><on>1</on></item>"
            "<item hot='0'><name>c</name><tag>1</tag><tag>u</tag></item>"
            "</flags>")
        seen = []

        class Recording(type(SQLiteBackend.dialect)):
            def storable(self, value):
                seen.append(value)
                return super().storable(value)

        backend = SQLiteBackend()
        backend.dialect = Recording()
        with backend:
            backend.load(derive_schema(hybrid_inlining(tree)), doc)
            rows = backend.execute_sql(
                'SELECT "name", "hot", typeof("hot"), "on", typeof("on") '
                'FROM "item" ORDER BY "ID"')
            tags = backend.execute_sql('SELECT "tag" FROM "tag" ORDER BY "ID"')
        assert rows == [("a", 1, "integer", 0, "integer"),
                        ("true", None, "null", 1, "integer"),
                        ("c", 0, "integer", None, "null")]
        assert tags == [("t",), ("1",), ("u",)]
        assert sorted(seen, key=repr) == sorted(
            [True, False, None, True, False, None], key=repr)

    def test_apply_configuration_builds_real_structures(self, dblp_data):
        tree, docs = dblp_data
        stats = collect_statistics(tree, docs)
        workload = WorkloadGenerator(tree, stats, seed=3).generate(6)
        result = GreedySearch(tree, workload, stats,
                              storage_bound=512 * 1024 * 1024).run()
        with SQLiteBackend() as backend:
            backend.load(result.schema, docs)
            backend.apply_configuration(result.configuration)
            names = {name for (name,) in backend.execute_sql(
                "SELECT name FROM sqlite_master")}
            for index in result.configuration.indexes:
                assert index.name in names
            for view in result.configuration.views:
                assert view.name in names

    def test_a_filter_on_an_optional_element_proposes_a_heap_view(
            self, dblp_data):
        """A WITHOUT ROWID key column holds no NULL, and ``editor`` is
        optional in DBLP: a SELECT filtering on it gets a heap view,
        which SQLite builds, while one on the required ``year`` gets a
        view clustered on it. A view clustered on ``editor`` anyway is
        refused by SQLite — the trap the NOT NULL rule keeps out."""
        tree, docs = dblp_data
        schema = derive_schema(hybrid_inlining(tree))
        generator = CandidateGenerator(
            build_stats_only_database(schema, collect_statistics(tree, docs)))
        queries, views = [], []
        for xpath in ('//inproceedings[editor = "Editor 3"]/author',
                      '//inproceedings[year = "1990"]/author'):
            queries.append(_translate(schema, xpath))
            views += [candidate
                      for candidate in generator.for_query(queries[-1])
                      if candidate.views]
        by_editor, by_year = views
        assert by_editor.indexes == []
        assert by_year.indexes[0].key_columns == ("year", "ID", "author_ID")
        with SQLiteBackend() as plain, SQLiteBackend() as backend:
            for each in (plain, backend):
                each.load(schema, docs)
            backend.apply_configuration(by_editor | by_year)
            for query, view in zip(queries, views):
                assert f'FROM "{view.views[0].name}"' \
                    in backend.sql_text(query)
                assert not any(multiset_diff(plain.execute(query),
                                             backend.execute(query)))
            trap = Configuration(
                [Index("jv_editor", "jv_editor", ("editor", "ID"),
                       clustered=True)],
                [_author_view(schema, "jv_editor", "editor")])
            with pytest.raises(BackendError, match="NOT NULL"):
                backend.apply_configuration(trap)

    def test_queries_are_rendered_over_the_narrowest_covering_view(
            self, dblp_data):
        tree, docs = dblp_data
        schema = derive_schema(hybrid_inlining(tree))
        wide = _author_view(schema, "jv_wide", "year", "title", "booktitle")
        narrow = _author_view(schema, "jv_narrow", "year")
        by_year = _translate(schema, '//inproceedings[year >= "1990"]/author')
        by_title = _translate(schema, '//inproceedings[title = "x"]/author')
        by_pages = _translate(schema, '//inproceedings[pages = "1"]/author')
        with SQLiteBackend() as plain, SQLiteBackend() as backend:
            for each in (plain, backend):
                each.load(schema, docs)
            base = {query: plain.sql_text(query)
                    for query in (by_year, by_title, by_pages)}
            backend.apply_configuration(Configuration(views=[wide, narrow]))
            # Both cover the first, only the wide one the second, neither
            # the third.
            for query, view in ((by_year, "jv_narrow"), (by_title, "jv_wide"),
                                (by_pages, None)):
                text = backend.sql_text(query)
                assert (text == base[query]) == (view is None)
                for name in ("jv_wide", "jv_narrow"):
                    assert (f'FROM "{name}"' in text) == (name == view)
                # One render site: every way to run a query runs that.
                backend.prepare(query)
                rows = backend.execute(query)
                assert rows == backend.execute_sql(text)
                assert backend.time_query(query, repeat=1).rows == len(rows)
                assert not any(multiset_diff(plain.execute(query), rows))
            assert backend.execute(by_year)

    def test_a_read_only_reopen_registers_the_views_it_finds(
            self, dblp_data, tmp_path):
        tree, docs = dblp_data
        schema = derive_schema(hybrid_inlining(tree))
        built = _author_view(schema, "jv_built", "year")
        absent = _author_view(schema, "jv_absent", "year", "title")
        query = _translate(schema, '//inproceedings[year >= "1990"]/author')
        path = str(tmp_path / "tuned.db")
        with SQLiteBackend(path) as writer:
            writer.load(schema, docs)
            writer.apply_configuration(Configuration(views=[built]))
            text, rows = writer.sql_text(query), writer.execute(query)
        with SQLiteBackend(path, read_only=True) as reader:
            assert 'FROM "jv_built"' not in reader.sql_text(query)
            # No DDL (the file cannot be written): a view the file does
            # not hold is not registered, let alone built.
            reader.apply_configuration(Configuration(
                indexes=[Index("ix_y", "inproc", ("year",))],
                views=[absent, built]))
            assert reader.sql_text(query) == text
            assert reader.execute(query) == rows
            assert "jv_absent" not in reader.table_names_on_disk()
            assert reader.index_names() == []

    def test_time_query_returns_positive_median(self, hybrid_pair):
        schema, _, sqlite_backend = hybrid_pair
        query = _translate(schema, '//inproceedings/title')
        timing = sqlite_backend.time_query(query, repeat=3, warmup=1)
        assert isinstance(timing, QueryTiming)
        assert timing.seconds > 0.0 and len(timing.runs) == 3
        assert timing.rows > 0 and timing.best <= timing.seconds * 1.5

    def test_engine_backend_timing_is_deterministic(self, hybrid_pair):
        schema, engine, _ = hybrid_pair
        query = _translate(schema, '//inproceedings/title')
        first = engine.time_query(query, repeat=2, warmup=0)
        second = engine.time_query(query, repeat=2, warmup=0)
        assert first.seconds == second.seconds > 0

    def test_bad_sql_raises_backend_error(self, hybrid_pair):
        _, _, sqlite_backend = hybrid_pair
        with pytest.raises(BackendError):
            sqlite_backend.execute_sql("SELECT * FROM no_such_table")

    def test_timed_runs_median(self):
        ticks = iter([0.0, 0.4, 1.0, 1.5])
        values = iter([[1], [1], [1]])

        def run():
            return next(values)

        timing = timed_runs(run, repeat=2, warmup=1,
                            clock=lambda: next(ticks))
        assert len(timing.runs) == 2 and timing.rows == 1
        assert timing.seconds == pytest.approx(0.45)


class TestSpearman:
    def test_perfect_and_inverse(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_get_average_ranks(self):
        assert spearman([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0)

    def test_degenerate_inputs(self):
        assert spearman([1], [2]) == 0.0
        assert spearman([1, 1, 1], [1, 2, 3]) == 0.0


class TestCalibrationSmoke:
    def test_run_calibration_structure(self):
        bundle = DatasetBundle.dblp(scale=40, seed=7)
        workload = bundle.workload_generator(seed=3).generate(4)
        report = run_calibration(bundle, workload,
                                 algorithms=("greedy",), repeat=1, warmup=0)
        assert isinstance(report, CalibrationReport)
        assert {d.label for d in report.designs} == {"logical-only", "greedy"}
        for design in report.designs:
            assert design.estimated_cost > 0
            assert design.measured_seconds > 0
            assert len(design.queries) == 4
            assert all(q.measured_seconds > 0 for q in design.queries)
        # The search must not think it made things worse than doing
        # nothing about physical design.
        assert (report.design("greedy").estimated_cost
                <= report.design("logical-only").estimated_cost)
        text = report.describe()
        assert "rank correlation" in text and "logical-only" in text


# ----------------------------------------------------------------------
# Crash-safe bulk load (the load manifest)
# ----------------------------------------------------------------------


class TestCrashSafeLoad:
    """An interrupted ``load()`` must be detected on reopen and either
    resumed to a byte-identical database or rolled back cleanly —
    never a raw sqlite error or a partial table set."""

    @pytest.fixture(autouse=True)
    def _no_leaked_faults(self):
        from repro.resilience import NULL_PLAN, install_fault_plan
        install_fault_plan(NULL_PLAN)
        yield
        install_fault_plan(NULL_PLAN)

    def _schema(self, dblp_data):
        tree, docs = dblp_data
        return derive_schema(hybrid_inlining(tree)), docs

    def _table_digests(self, path, schema):
        """Sorted-row digest per mapped table of the database file."""
        with SQLiteBackend(str(path), read_only=True) as backend:
            return {name: sorted(backend.execute_sql(
                        f'SELECT * FROM "{name}"'))
                    for name in schema.table_names}

    def _crash_load(self, path, schema, docs, after_batches=3):
        """Kill a fresh load after ``after_batches`` committed batches
        (fault-raised mid-load, connection discarded uncommitted — the
        same durable state a SIGKILL leaves behind under WAL)."""
        from repro.errors import InjectedFault
        from repro.resilience import install_fault_plan
        install_fault_plan(
            f"backend.load.batch:1:fatal:0:{after_batches}")
        backend = SQLiteBackend(str(path))
        with pytest.raises(InjectedFault):
            backend.load(schema, docs, batch_size=40, txn_rows=40)
        backend.close()  # uncommitted work rolls back, as after SIGKILL
        from repro.resilience import NULL_PLAN
        install_fault_plan(NULL_PLAN)

    def test_clean_load_writes_complete_manifest(self, dblp_data, tmp_path):
        schema, docs = self._schema(dblp_data)
        with SQLiteBackend(str(tmp_path / "clean.db")) as backend:
            backend.load(schema, docs)
            manifest = backend.load_manifest()
            assert manifest is not None and manifest.complete
            assert manifest.mode == "fresh"
            assert manifest.watermarks == backend.row_counts

    def test_interrupted_load_is_detected_on_reopen(self, dblp_data,
                                                    tmp_path):
        schema, docs = self._schema(dblp_data)
        path = tmp_path / "crashed.db"
        self._crash_load(path, schema, docs)
        with SQLiteBackend(str(path)) as backend:
            manifest = backend.load_manifest()
            assert manifest is not None and not manifest.complete
            # Something committed, but not everything.
            committed = sum(manifest.watermarks.values())
            assert 0 < committed < sum(
                self._clean_row_counts(schema, docs).values())

    def _clean_row_counts(self, schema, docs):
        with SQLiteBackend() as backend:
            backend.load(schema, docs)
            return dict(backend.row_counts)

    def test_resume_reproduces_the_clean_load(self, dblp_data, tmp_path):
        schema, docs = self._schema(dblp_data)
        clean, crashed = tmp_path / "clean.db", tmp_path / "crashed.db"
        with SQLiteBackend(str(clean)) as backend:
            backend.load(schema, docs)
            clean_counts = dict(backend.row_counts)
        self._crash_load(crashed, schema, docs)
        with SQLiteBackend(str(crashed)) as backend:
            backend.load(schema, docs, batch_size=25, resume=True)
            assert backend.row_counts == clean_counts
            manifest = backend.load_manifest()
            assert manifest is not None and manifest.complete
        assert (self._table_digests(crashed, schema)
                == self._table_digests(clean, schema))

    def test_default_reload_rolls_back_cleanly(self, dblp_data, tmp_path):
        schema, docs = self._schema(dblp_data)
        clean, crashed = tmp_path / "clean.db", tmp_path / "crashed.db"
        with SQLiteBackend(str(clean)) as backend:
            backend.load(schema, docs)
        self._crash_load(crashed, schema, docs)
        with SQLiteBackend(str(crashed)) as backend:
            backend.load(schema, docs)  # no resume: rollback + reload
            manifest = backend.load_manifest()
            assert manifest is not None and manifest.complete
        assert (self._table_digests(crashed, schema)
                == self._table_digests(clean, schema))

    def test_resume_refuses_a_different_schema(self, dblp_data, tmp_path):
        schema, docs = self._schema(dblp_data)
        tree, _ = dblp_data
        other = derive_schema(fully_split(tree))
        path = tmp_path / "crashed.db"
        self._crash_load(path, schema, docs)
        with SQLiteBackend(str(path)) as backend:
            with pytest.raises(BackendError, match="different mapped"):
                backend.load(other, docs, resume=True)

    def test_interrupted_append_load_is_refused(self, dblp_data, tmp_path):
        """A file holding an interrupted append-load (manifest mode
        ``append``, not complete) is refused, never rolled back: a
        rollback would drop the base data along with the appended rows."""
        from repro.backends.dbms import MANIFEST_TABLE
        schema, docs = self._schema(dblp_data)
        path = tmp_path / "appended.db"
        with SQLiteBackend(str(path)) as backend:
            backend.load(schema, docs)
            counts = dict(backend.row_counts)
            backend.execute_sql(
                f'UPDATE "{MANIFEST_TABLE}" SET "value" = CASE "key" '
                f"WHEN 'mode' THEN 'append' ELSE '0' END "
                f"WHERE \"key\" IN ('mode', 'complete')")
            backend.connection.commit()
        with SQLiteBackend(str(path)) as backend:
            manifest = backend.load_manifest()
            assert manifest.mode == "append" and not manifest.complete
            with pytest.raises(BackendError, match="append-load"):
                backend.load(schema, docs)
            with pytest.raises(BackendError, match="append-load"):
                backend.load(schema, docs, resume=True)
            for name, rows in counts.items():
                assert len(backend.table_rows(name)) == rows

    def test_busy_error_classification(self, dblp_data):
        from repro.backends import BackendBusyError
        assert issubclass(BackendBusyError, BackendError)
        assert BackendBusyError("x").retryable is True
