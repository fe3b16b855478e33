"""Tests for the repro.check static-analysis subsystem."""

import os

import pytest

from repro.check import (CODES, Findings, Severity, analyze_query,
                         check_plan, check_schema, check_transform,
                         checks_enabled, enforce, lint_bundle,
                         override_checks)
from repro.engine import Column, Database, Index, SQLType
from repro.engine.optimizer import Optimizer
from repro.errors import CheckError
from repro.experiments import DatasetBundle
from repro.mapping import derive_schema, hybrid_inlining
from repro.obs import Tracer, to_json
from repro.search.evaluator import build_stats_only_database
from repro.sqlast import parse_sql


# ----------------------------------------------------------------------
# Findings engine
# ----------------------------------------------------------------------
class TestFindings:
    def test_add_uses_registry_severity(self):
        findings = Findings()
        finding = findings.add("SQL001", "boom", "select[0]")
        assert finding.severity is Severity.ERROR
        assert findings.add("SQL009", "w").severity is Severity.WARNING

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            Findings().add("SQL999", "nope")

    def test_accessors_and_rendering(self):
        findings = Findings()
        findings.add("SQL003", "no such column", "select[0].where")
        findings.add("SQL009", "null compare")
        assert len(findings) == 2 and bool(findings)
        assert len(findings.errors) == 1
        assert len(findings.warnings) == 1
        text = findings.render()
        assert "ERROR SQL003 [select[0].where]: no such column" in text
        dicts = findings.to_dicts()
        assert dicts[0] == {"code": "SQL003", "severity": "error",
                            "message": "no such column",
                            "location": "select[0].where"}

    def test_concatenation(self):
        a, b = Findings(), Findings()
        a.add("SQL001", "x")
        b.add("MAP002", "y")
        assert [f.code for f in a + b] == ["SQL001", "MAP002"]
        a.extend(b)
        assert len(a) == 2

    def test_every_code_has_summary(self):
        for code, (severity, summary) in CODES.items():
            assert isinstance(severity, Severity)
            assert summary

    def test_dedupe_drops_exact_duplicates_only(self):
        findings = Findings()
        findings.add("SQL001", "boom", "select[0]")
        findings.add("SQL001", "boom", "select[0]")     # exact duplicate
        findings.add("SQL001", "boom", "select[1]")     # different site
        findings.add("SQL009", "null compare")
        deduped = findings.dedupe()
        assert len(findings) == 4                        # original intact
        assert [(f.code, f.location) for f in deduped] == \
            [("SQL001", "select[0]"), ("SQL001", "select[1]"),
             ("SQL009", "")]

    def test_code_lint_strict_exit_codes(self, tmp_path):
        # Warnings pass by default; --strict turns them into failure;
        # errors fail either way.
        from repro.cli import main
        (tmp_path / "warn.py").write_text(
            "import random\nVALUE = random.random()\n")
        assert main(["check", "--code", "--path", str(tmp_path)]) == 0
        assert main(["check", "--code", "--strict",
                     "--path", str(tmp_path)]) == 1
        (tmp_path / "err.py").write_text(
            "class S:\n"
            "    def work(self):\n"
            "        self.n += 1\n"
            "    def run(self, pool):\n"
            "        pool.submit(self.work)\n")
        assert main(["check", "--code", "--path", str(tmp_path)]) == 1


# ----------------------------------------------------------------------
# Gating and enforcement
# ----------------------------------------------------------------------
class TestRuntime:
    def test_on_by_default_under_pytest(self):
        with override_checks(None):
            if "REPRO_CHECK" not in os.environ:
                assert checks_enabled()

    def test_env_forces_off_and_on(self, monkeypatch):
        with override_checks(None):
            monkeypatch.setenv("REPRO_CHECK", "0")
            assert not checks_enabled()
            monkeypatch.setenv("REPRO_CHECK", "off")
            assert not checks_enabled()
            monkeypatch.setenv("REPRO_CHECK", "1")
            assert checks_enabled()

    def test_override_wins_and_restores(self):
        with override_checks(False):
            assert not checks_enabled()
            with override_checks(True):
                assert checks_enabled()
            assert not checks_enabled()

    def test_enforce_raises_with_findings_attached(self):
        findings = Findings()
        findings.add("PLAN001", "cost is nan")
        with pytest.raises(CheckError) as info:
            enforce(findings, context="unit-test")
        assert "unit-test" in str(info.value)
        assert "PLAN001" in str(info.value)
        assert info.value.findings is findings

    def test_enforce_passes_warnings_through(self):
        findings = Findings()
        findings.add("SQL009", "null compare")
        assert enforce(findings) is findings

    def test_enforce_records_tracer_events(self):
        tracer = Tracer()
        findings = Findings()
        findings.add("MAP002", "lossy", "node[3]")
        with pytest.raises(CheckError):
            enforce(findings, tracer, context="t")
        assert "check.violation" in to_json(tracer)
        assert tracer.metrics("check").get("violations_error") == 1
        assert tracer.metrics("check").get("code_MAP002") == 1


# ----------------------------------------------------------------------
# SQL semantic analyzer
# ----------------------------------------------------------------------
@pytest.fixture
def catalog():
    db = Database()
    db.create_table("person", [
        Column("ID", SQLType.INTEGER, nullable=False),
        Column("PID", SQLType.INTEGER),
        Column("name", SQLType.VARCHAR),
        Column("age", SQLType.INTEGER),
    ])
    db.create_table("address", [
        Column("ID", SQLType.INTEGER, nullable=False),
        Column("PID", SQLType.INTEGER),
        Column("city", SQLType.VARCHAR),
    ])
    return db.catalog


def _codes(query_text, catalog):
    return [f.code for f in analyze_query(parse_sql(query_text), catalog)]


class TestSQLAnalyzer:
    def test_clean_query(self, catalog):
        sql = ("SELECT p.name, a.city FROM person p, address a "
               "WHERE p.ID = a.PID AND p.age >= 30 ORDER BY 1")
        assert _codes(sql, catalog) == []

    def test_unknown_table(self, catalog):
        assert "SQL001" in _codes("SELECT x.ID FROM nope x", catalog)

    def test_duplicate_alias(self, catalog):
        assert "SQL002" in _codes(
            "SELECT p.ID FROM person p, address p", catalog)

    def test_unresolved_column(self, catalog):
        assert _codes("SELECT p.shoe FROM person p", catalog) == ["SQL003"]

    def test_unknown_alias(self, catalog):
        assert "SQL003" in _codes(
            "SELECT q.name FROM person p", catalog)

    def test_ambiguous_unqualified(self, catalog):
        assert "SQL004" in _codes(
            "SELECT ID FROM person p, address a", catalog)

    def test_unqualified_resolves_when_unique(self, catalog):
        assert _codes("SELECT city FROM person p, address a", catalog) == []

    def test_type_incompatible_comparison(self, catalog):
        assert "SQL005" in _codes(
            "SELECT p.ID FROM person p WHERE p.age = 'young'", catalog)

    def test_numeric_string_against_numeric_column_ok(self, catalog):
        # the XPath translator always emits string literals
        assert _codes(
            "SELECT p.ID FROM person p WHERE p.age >= '1995'", catalog) == []

    def test_column_family_mismatch(self, catalog):
        assert "SQL005" in _codes(
            "SELECT p.ID FROM person p WHERE p.age = p.name", catalog)

    def test_null_literal_comparison_warns(self, catalog):
        findings = analyze_query(parse_sql(
            "SELECT p.ID FROM person p WHERE p.name = NULL"), catalog)
        assert [f.code for f in findings] == ["SQL009"]
        assert findings.errors == []

    def test_union_type_mismatch(self, catalog):
        sql = ("SELECT p.age FROM person p "
               "UNION ALL SELECT a.city FROM address a")
        assert "SQL006" in _codes(sql, catalog)

    def test_union_null_padding_ok(self, catalog):
        sql = ("SELECT p.age, NULL FROM person p "
               "UNION ALL SELECT NULL, a.city FROM address a")
        assert _codes(sql, catalog) == []

    def test_order_by_out_of_range(self, catalog):
        assert "SQL007" in _codes(
            "SELECT p.ID FROM person p ORDER BY 2", catalog)

    def test_exists_without_correlation(self, catalog):
        sql = ("SELECT p.ID FROM person p WHERE EXISTS "
               "(SELECT 1 FROM address a WHERE a.city = 'x')")
        assert "SQL008" in _codes(sql, catalog)

    def test_exists_correlated_ok(self, catalog):
        sql = ("SELECT p.ID FROM person p WHERE EXISTS "
               "(SELECT 1 FROM address a WHERE a.PID = p.ID)")
        assert _codes(sql, catalog) == []

    def test_exists_multiple_inner_tables(self, catalog):
        sql = ("SELECT p.ID FROM person p WHERE EXISTS "
               "(SELECT 1 FROM address a, person q "
               "WHERE a.PID = p.ID)")
        assert "SQL008" in _codes(sql, catalog)

    def test_exists_inner_bad_column(self, catalog):
        sql = ("SELECT p.ID FROM person p WHERE EXISTS "
               "(SELECT 1 FROM address a WHERE a.nope = p.ID)")
        assert "SQL003" in _codes(sql, catalog)


# ----------------------------------------------------------------------
# Mapping invariant checker (corruption cases)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dblp_bundle():
    return DatasetBundle.dblp(scale=120, seed=7)


class TestMappingChecker:
    def _schema(self, bundle):
        return derive_schema(hybrid_inlining(bundle.tree))

    def test_clean_schema(self, dblp_bundle):
        assert not check_schema(self._schema(dblp_bundle))

    def test_missing_leaf_storage_is_lossy(self, dblp_bundle):
        schema = self._schema(dblp_bundle)
        victim = next(iter(schema.leaf_storage))
        del schema.leaf_storage[victim]
        assert [f.code for f in check_schema(schema)] == ["MAP002"]

    def test_missing_key_column(self, dblp_bundle):
        schema = self._schema(dblp_bundle)
        group = next(iter(schema.groups.values()))
        group.columns = [c for c in group.columns if c.name != "ID"]
        codes = {f.code for f in check_schema(schema)}
        assert "MAP003" in codes
        assert "MAP005" in codes  # partitions still list the column

    def test_mistyped_key_column(self, dblp_bundle):
        schema = self._schema(dblp_bundle)
        group = next(iter(schema.groups.values()))
        group.column("ID").sql_type = SQLType.VARCHAR
        assert "MAP003" in {f.code for f in check_schema(schema)}

    def test_dangling_parent_link(self, dblp_bundle):
        schema = self._schema(dblp_bundle)
        child = next(g for g in schema.groups.values()
                     if g.parent_annotation is not None)
        child.parent_annotation = "ghost"
        assert "MAP004" in {f.code for f in check_schema(schema)}

    def test_orphan_group_cycle(self, dblp_bundle):
        schema = self._schema(dblp_bundle)
        names = list(schema.groups)
        child = next(g for g in schema.groups.values()
                     if g.parent_annotation is not None)
        child.parent_annotation = child.annotation  # self-parented cycle
        assert "MAP004" in {f.code for f in check_schema(schema)}
        assert names  # schema untouched otherwise

    def test_partition_with_phantom_column(self, dblp_bundle):
        schema = self._schema(dblp_bundle)
        group = next(iter(schema.groups.values()))
        partition = group.partitions[0]
        partition.column_names = partition.column_names + ("phantom",)
        assert "MAP005" in {f.code for f in check_schema(schema)}

    def test_storage_pointing_at_missing_column(self, dblp_bundle):
        schema = self._schema(dblp_bundle)
        storage = next(s for s in schema.leaf_storage.values()
                       if s.column is not None)
        storage.column = "no_such_column"
        assert "MAP006" in {f.code for f in check_schema(schema)}

    def test_transform_coverage_loss(self, dblp_bundle):
        before = self._schema(dblp_bundle)
        after = self._schema(dblp_bundle)
        victim = next(iter(after.leaf_storage))
        del after.leaf_storage[victim]
        findings = check_transform(before, after, "UnitTestRewrite")
        assert [f.code for f in findings] == ["MAP007"]
        assert "UnitTestRewrite" in findings.items[0].message
        assert not check_transform(before, before)


# ----------------------------------------------------------------------
# Plan sanitizer
# ----------------------------------------------------------------------
class TestPlanChecker:
    @pytest.fixture
    def planned(self, dblp_bundle):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        db = build_stats_only_database(schema, dblp_bundle.stats)
        table = sorted(db.catalog.tables)[0]
        query = parse_sql(f"SELECT t.ID FROM {table} t WHERE t.ID = '5'")
        with override_checks(False):
            plan = db.estimate(query)
        return db, query, plan

    def test_clean_plan(self, planned):
        db, query, plan = planned
        assert not check_plan(query, plan, db.catalog, what_if=True)

    def test_negative_cost_estimate(self, planned):
        db, query, plan = planned
        plan.root.est_cost = -1.0
        assert "PLAN001" in {f.code
                             for f in check_plan(query, plan, db.catalog,
                                                 what_if=True)}

    def test_nan_total(self, planned):
        db, query, plan = planned
        plan.est_cost = float("nan")
        assert "PLAN001" in {f.code
                             for f in check_plan(query, plan, db.catalog,
                                                 what_if=True)}

    def test_undeclared_index(self, planned, dblp_bundle):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        db = build_stats_only_database(schema, dblp_bundle.stats)
        table = sorted(db.catalog.tables)[0]
        hyp = Index(name="hyp_id", table_name=table,
                    key_columns=("ID",))
        query = parse_sql(f"SELECT t.ID FROM {table} t WHERE t.ID = '5'")
        with override_checks(False):
            plan = db.estimate(query, extra_indexes=[hyp])
        # declared: clean; undeclared: PLAN002
        assert not check_plan(query, plan, db.catalog,
                              extra_indexes=[hyp], what_if=True)
        codes = {f.code for f in check_plan(query, plan, db.catalog,
                                            what_if=True)}
        if "hyp_id" in str(plan.root.explain()):
            assert "PLAN002" in codes

    def test_branch_count_mismatch(self, planned):
        # A plan's branches are built from its own query: hand the
        # checker a plan of the query's first SELECT only.
        db, query, plan = planned
        union = parse_sql(f"{query} UNION ALL {query}")
        assert "PLAN006" in {f.code
                             for f in check_plan(union, plan, db.catalog,
                                                 what_if=True)}

    def test_unknown_scan_table(self, planned):
        db, query, plan = planned
        from repro.engine.plans import SeqScan
        scans = [n for n in _walk(plan.root) if isinstance(n, SeqScan)]
        if scans:
            scans[0].table_name = "vanished"
            assert "PLAN003" in {f.code
                                 for f in check_plan(query, plan, db.catalog,
                                                     what_if=True)}


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


# ----------------------------------------------------------------------
# Debug-mode wiring: corrupted artifacts are caught before costing
# ----------------------------------------------------------------------
class TestWiring:
    def test_corrupted_plan_caught_by_estimate(self, dblp_bundle):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        db = build_stats_only_database(schema, dblp_bundle.stats)
        table = sorted(db.catalog.tables)[0]
        query = parse_sql(f"SELECT t.ID FROM {table} t")
        original = Optimizer.plan

        def corrupting(self, q):
            planned = original(self, q)
            planned.root.est_cost = float("nan")
            return planned

        try:
            Optimizer.plan = corrupting
            with override_checks(True), pytest.raises(CheckError) as info:
                db.estimate(query)
            assert any(f.code == "PLAN001" for f in info.value.findings)
            with override_checks(False):
                db.estimate(query)  # gate off: corruption passes through
        finally:
            Optimizer.plan = original

    def test_corrupted_mapping_caught_by_evaluator(self, dblp_bundle,
                                                   monkeypatch):
        import repro.search.evaluator as evaluator_mod
        from repro.search.evaluator import MappingEvaluator
        from repro.workload import Workload

        workload = Workload("w")
        workload.add("//inproceedings/title")
        real_derive = evaluator_mod.derive_schema

        def lossy_derive(mapping):
            schema = real_derive(mapping)
            victim = next(iter(schema.leaf_storage))
            del schema.leaf_storage[victim]
            return schema

        monkeypatch.setattr(evaluator_mod, "derive_schema", lossy_derive)
        evaluator = MappingEvaluator(workload, dblp_bundle.stats)
        with override_checks(True), pytest.raises(CheckError) as info:
            evaluator.evaluate(hybrid_inlining(dblp_bundle.tree))
        assert any(f.code == "MAP002" for f in info.value.findings)

    def test_sql_analysis_memoized_per_query_object(self, dblp_bundle):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        db = build_stats_only_database(schema, dblp_bundle.stats)
        table = sorted(db.catalog.tables)[0]
        query = parse_sql(f"SELECT t.ID FROM {table} t")
        with override_checks(True):
            db.estimate(query)
            db.estimate(query)
        assert len(db._analysis_cache) == 1


# ----------------------------------------------------------------------
# End-to-end: search runs cleanly, bundle lint works
# ----------------------------------------------------------------------
class TestEndToEnd:
    @pytest.mark.parametrize("make", [DatasetBundle.dblp,
                                      DatasetBundle.movie])
    def test_greedy_search_zero_findings(self, make):
        from repro.search import GreedySearch

        bundle = make(scale=120, seed=7)
        workload = bundle.workload_generator(seed=11).generate(4)
        tracer = Tracer()
        with override_checks(True):
            result = GreedySearch(bundle.tree, workload, bundle.stats,
                                  tracer=tracer).run()
        assert result.estimated_cost > 0
        assert "check.violation" not in to_json(tracer)
        assert tracer.metrics("check").snapshot() == {}

    def test_lint_bundle_clean(self, dblp_bundle):
        workload = dblp_bundle.workload_generator(seed=5).generate(5)
        report = lint_bundle(hybrid_inlining(dblp_bundle.tree), workload,
                             dblp_bundle.stats)
        assert report.ok
        assert report.queries_checked == 5
        assert "OK" in report.summary()

    def test_lint_bundle_reports_corruption(self, dblp_bundle,
                                            monkeypatch):
        import repro.check.bundle as bundle_mod

        workload = dblp_bundle.workload_generator(seed=5).generate(2)
        real_derive = bundle_mod.derive_schema

        def lossy_derive(mapping):
            schema = real_derive(mapping)
            victim = next(iter(schema.leaf_storage))
            del schema.leaf_storage[victim]
            return schema

        monkeypatch.setattr(bundle_mod, "derive_schema", lossy_derive)
        report = lint_bundle(hybrid_inlining(dblp_bundle.tree), workload,
                             dblp_bundle.stats)
        assert not report.ok
        assert any(f.code == "MAP002" for f in report.findings)
