"""Unit tests for the physical design advisor."""

import pytest

from repro.engine import Column, Database, Index, SQLType
from repro.errors import SearchError
from repro.physdesign import (CandidateGenerator, Configuration,
                              IndexTuningAdvisor, materialize)
from repro.sqlast import parse_sql, shape_of


@pytest.fixture
def db():
    return _make_db()


def _make_db(venue_nullable: bool = True) -> Database:
    import random
    rng = random.Random(3)
    database = Database()
    database.create_table("pub", [
        Column("ID", SQLType.INTEGER, False),
        Column("PID", SQLType.INTEGER),
        Column("title", SQLType.VARCHAR),
        Column("venue", SQLType.VARCHAR, venue_nullable),
        Column("year", SQLType.INTEGER),
    ])
    database.create_table("person", [
        Column("ID", SQLType.INTEGER, False),
        Column("PID", SQLType.INTEGER),
        Column("name", SQLType.VARCHAR),
    ])
    database.insert_rows("pub", [
        (i, 0, f"t{i}", f"V{rng.randrange(12)}", 1980 + i % 25)
        for i in range(4000)])
    database.insert_rows("person", [
        (10_000 + j, rng.randrange(4000), f"n{j % 500}")
        for j in range(9000)])
    database.analyze()
    database.build_primary_key_indexes()
    return database


JOIN_SQL = ("SELECT P.ID, A.name FROM pub P, person A "
            "WHERE P.venue = 'V3' AND P.ID = A.PID")


def _split(candidates):
    """The indexes and the view candidates of ``for_query``'s
    one-structure configurations, in generation order."""
    return ([c.indexes[0] for c in candidates if not c.views],
            [c for c in candidates if c.views])


class TestCandidateGeneration:
    def test_shape_analysis(self, db):
        query = parse_sql(JOIN_SQL)
        shape = shape_of(query.selects[0])
        assert shape.key_eq["P"] == ("venue",)
        assert shape.joins == (("P", "ID", "A", "PID"),)
        assert "name" in shape.required["A"]

    def test_candidates_include_covering_and_view(self, db):
        generator = CandidateGenerator(db)
        candidates = generator.for_query(parse_sql(JOIN_SQL))
        assert all(len(candidate) == 1 for candidate in candidates)
        indexes, views = _split(candidates)
        assert any(set(ix.included_columns) for ix in indexes)
        assert any(ix.key_columns == ("venue",) for ix in indexes)
        assert any(ix.key_columns[0] == "PID" for ix in indexes)
        assert len(views) == 1
        assert views[0].views[0].view_def.child_fk_column == "PID"

    def test_candidates_deduplicated(self, db):
        generator = CandidateGenerator(db)
        assert generator.for_query(parse_sql(JOIN_SQL))
        assert generator.for_query(parse_sql(JOIN_SQL)) == []

    def test_range_predicate_candidates(self, db):
        generator = CandidateGenerator(db)
        indexes, _ = _split(generator.for_query(parse_sql(
            "SELECT P.title FROM pub P WHERE P.year >= 2000")))
        assert any(ix.key_columns == ("year",) for ix in indexes)

    def test_exists_probe_candidate(self, db):
        generator = CandidateGenerator(db)
        indexes, _ = _split(generator.for_query(parse_sql(
            "SELECT P.ID FROM pub P WHERE EXISTS "
            "(SELECT A.ID FROM person A WHERE A.PID = P.ID "
            "AND A.name = 'n3')")))
        assert any(ix.key_columns[:1] == ("PID",) for ix in indexes)


class TestClusteredViews:
    """A join view is stored clustered on its SELECT's seek key — NOT
    NULL columns only — then the parent and child ``ID``."""

    def test_a_not_null_filter_column_keys_the_view(self):
        db = _make_db(venue_nullable=False)
        (config,) = _split(
            CandidateGenerator(db).for_query(parse_sql(JOIN_SQL)))[1]
        (view,), (cluster,) = config.views, config.indexes
        # The child's ID joins the view so that the key is unique.
        assert dict(view.view_def.columns)["person_ID"] == ("person", "ID")
        assert cluster.key_columns == ("venue", "ID", "person_ID")
        assert (cluster.name, cluster.table_name) == (view.name, view.name)
        assert cluster.clustered and not cluster.is_built
        assert config.cluster_of(view) is cluster
        assert len(config) == 1
        assert config.size_bytes(db) == view.size_bytes   # 0 bytes more
        assert config.describe().endswith(
            "ON PID CLUSTERED (venue, ID, person_ID)")

    def test_the_clustered_view_is_sought_and_built(self):
        db = _make_db(venue_nullable=False)
        (config,) = _split(
            CandidateGenerator(db).for_query(parse_sql(JOIN_SQL)))[1]
        (view,) = config.views
        heap = db.estimate(JOIN_SQL, extra_tables=[view])
        sought = db.estimate(JOIN_SQL, extra_indexes=config.indexes,
                             extra_tables=[view])
        assert sought.objects_used() == {view.name}
        assert sought.est_cost < heap.est_cost
        before = sorted(db.execute(JOIN_SQL).rows)
        materialize(db, config)
        assert db.catalog.indexes[view.name].clustered
        assert db.catalog.indexes[view.name].is_built
        executed = db.execute(JOIN_SQL)
        assert "IndexSeek" in executed.plan.explain()
        assert sorted(executed.rows) == before


class TestAdvisor:
    def test_recommendation_lowers_cost(self, db):
        workload = [(parse_sql(JOIN_SQL), 1.0)]
        advisor = IndexTuningAdvisor(db)
        base_cost = db.estimate(JOIN_SQL).est_cost
        result = advisor.tune(workload)
        assert result.total_cost < base_cost
        assert len(result.configuration) >= 1

    def test_respects_storage_bound(self, db):
        workload = [(parse_sql(JOIN_SQL), 1.0)]
        advisor = IndexTuningAdvisor(db)
        data = db.catalog.total_data_bytes()
        tight = advisor.tune(workload, storage_bound=data + 64 * 1024)
        roomy = advisor.tune(workload, storage_bound=data + 1 << 30)
        assert tight.configuration.size_bytes(db) <= 64 * 1024
        assert roomy.total_cost <= tight.total_cost

    def test_bound_below_data_size_rejected(self, db):
        advisor = IndexTuningAdvisor(db)
        with pytest.raises(SearchError):
            advisor.tune([(parse_sql(JOIN_SQL), 1.0)], storage_bound=1)

    def test_reports_objects_used(self, db):
        workload = [(parse_sql(JOIN_SQL), 1.0)]
        result = IndexTuningAdvisor(db).tune(workload)
        report = result.reports[0]
        assert report.objects_used
        config_names = {structure.name for structure in
                        result.configuration.indexes
                        + result.configuration.views}
        named = {o for o in report.objects_used
                 if o.startswith("cand_")}
        assert named <= config_names

    @pytest.mark.parametrize("sqls", [
        [JOIN_SQL],
        [JOIN_SQL, "SELECT P.title FROM pub P WHERE P.year = 1999"]])
    def test_recommends_only_what_some_plan_reads(self, db, sqls):
        """A structure picked early and superseded later — the plain
        ``(venue)`` index once the join view answers JOIN_SQL — is not
        recommended: every structure is in some plan's I(Q)."""
        result = IndexTuningAdvisor(db).tune(
            [(parse_sql(sql), 1.0) for sql in sqls])
        used = frozenset().union(*(report.objects_used
                                   for report in result.reports))
        assert len(result.configuration) >= 1
        assert {structure.name for structure in result.configuration.indexes
                + result.configuration.views} <= used

    def test_weights_steer_selection(self, db):
        q_cheap = parse_sql("SELECT P.title FROM pub P WHERE P.year = 1999")
        advisor = IndexTuningAdvisor(db)
        heavy = advisor.tune([(q_cheap, 100.0),
                              (parse_sql(JOIN_SQL), 0.001)])
        year_indexed = any("year" in ix.key_columns
                           for ix in heavy.configuration.indexes)
        assert year_indexed

    def test_materialize_builds_everything(self, db):
        workload = [(parse_sql(JOIN_SQL), 1.0)]
        result = IndexTuningAdvisor(db).tune(workload)
        materialize(db, result.configuration)
        for index in result.configuration.indexes:
            assert db.catalog.indexes[index.name].is_built
        for view in result.configuration.views:
            assert db.catalog.table(view.name).is_materialized

    def test_advisor_never_mutates_catalog(self, db):
        tables_before = set(db.catalog.tables)
        indexes_before = set(db.catalog.indexes)
        IndexTuningAdvisor(db).tune([(parse_sql(JOIN_SQL), 1.0)])
        assert set(db.catalog.tables) == tables_before
        assert set(db.catalog.indexes) == indexes_before

    def test_estimated_matches_measured_direction(self, db):
        """The advisor's estimated win must materialize as a real win."""
        workload = [(parse_sql(JOIN_SQL), 1.0)]
        before = db.execute(JOIN_SQL).cost
        result = IndexTuningAdvisor(db).tune(workload)
        materialize(db, result.configuration)
        after = db.execute(JOIN_SQL).cost
        assert after < before


class TestConfiguration:
    def test_extended_is_persistent(self):
        config = Configuration()
        index = Index("x", "pub", ("venue",))
        extended = config | Configuration([index])
        assert len(config) == 0
        assert len(extended) == 1

    def test_describe_empty(self):
        assert "no physical structures" in Configuration().describe()


class TestAdvisorEfficiency:
    def test_one_size_computation_per_candidate(self, db, monkeypatch):
        """Regression: greedy selection used to recompute the chosen
        configuration's size (``Configuration.size_bytes``) on every
        heap pop, making selection quadratic in configuration size.
        Candidate sizes are now computed once each and the accepted
        size is a running sum: ``size_bytes`` runs once per candidate
        and never on the chosen design."""
        advisor = IndexTuningAdvisor(db)
        size_calls = []
        original_size = Configuration.size_bytes

        def counting_size(self, database):
            size_calls.append(self)
            return original_size(self, database)

        monkeypatch.setattr(Configuration, "size_bytes", counting_size)
        data = db.catalog.total_data_bytes()
        result = advisor.tune([(parse_sql(JOIN_SQL), 1.0)],
                              storage_bound=data + 1 << 30)
        assert len(result.configuration) >= 1
        # Exactly one size computation per generated candidate — none
        # repeated across greedy passes.
        assert len(size_calls) == result.candidates_considered
        assert len(size_calls) == len(set(map(id, size_calls)))
