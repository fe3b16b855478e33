"""Integration tests: plan and execute SQL on the engine.

These compare executed results against straightforward Python
reimplementations of the same queries, across different physical
designs (which must never change results, only cost).
"""

import random

import pytest

from repro.engine import (Column, Database, ForeignKey, JoinViewDefinition,
                          SQLType)


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.create_table("inproc", [
        Column("ID", SQLType.INTEGER, False),
        Column("PID", SQLType.INTEGER),
        Column("title", SQLType.VARCHAR),
        Column("booktitle", SQLType.VARCHAR),
        Column("year", SQLType.INTEGER),
        Column("ee", SQLType.VARCHAR, nullable=True),
    ])
    database.create_table("author", [
        Column("ID", SQLType.INTEGER, False),
        Column("PID", SQLType.INTEGER),
        Column("name", SQLType.VARCHAR),
    ], foreign_keys=[ForeignKey("PID", "inproc")])
    rng = random.Random(42)
    conferences = ["SIGMOD CONFERENCE", "VLDB", "ICDE", "KDD", "WWW"]
    pubs, authors, next_author = [], [], 0
    for i in range(3000):
        ee = f"http://x/{i}" if rng.random() < 0.3 else None
        pubs.append((i, 0, f"Paper {i}", rng.choice(conferences),
                     1985 + i % 20, ee))
        for _ in range(rng.randint(1, 4)):
            authors.append((next_author, i, f"author{rng.randint(0, 400)}"))
            next_author += 1
    database.insert_rows("inproc", pubs)
    database.insert_rows("author", authors)
    database.analyze()
    database.build_primary_key_indexes()
    return database


def python_filter(db, booktitle):
    return [row for row in db.catalog.table("inproc").rows
            if row[3] == booktitle]


class TestSingleTable:
    def test_equality_filter(self, db):
        result = db.execute(
            "SELECT I.ID FROM inproc I WHERE I.booktitle = 'VLDB'")
        assert len(result.rows) == len(python_filter(db, "VLDB"))

    def test_range_filter(self, db):
        result = db.execute(
            "SELECT I.ID FROM inproc I WHERE I.year >= 2000")
        expected = [r for r in db.catalog.table("inproc").rows if r[4] >= 2000]
        assert len(result.rows) == len(expected)

    def test_conjunction(self, db):
        result = db.execute(
            "SELECT I.ID FROM inproc I "
            "WHERE I.booktitle = 'ICDE' AND I.year = 1990")
        expected = [r for r in db.catalog.table("inproc").rows
                    if r[3] == "ICDE" and r[4] == 1990]
        assert sorted(r[0] for r in result.rows) == sorted(r[0] for r in expected)

    def test_is_null(self, db):
        result = db.execute("SELECT I.ID FROM inproc I WHERE I.ee IS NULL")
        expected = [r for r in db.catalog.table("inproc").rows if r[5] is None]
        assert len(result.rows) == len(expected)

    def test_is_not_null(self, db):
        result = db.execute("SELECT I.ID FROM inproc I WHERE I.ee IS NOT NULL")
        expected = [r for r in db.catalog.table("inproc").rows
                    if r[5] is not None]
        assert len(result.rows) == len(expected)

    def test_or_predicate(self, db):
        result = db.execute(
            "SELECT I.ID FROM inproc I "
            "WHERE I.booktitle = 'KDD' OR I.year = 1985")
        expected = [r for r in db.catalog.table("inproc").rows
                    if r[3] == "KDD" or r[4] == 1985]
        assert len(result.rows) == len(expected)

    def test_projection_values(self, db):
        result = db.execute(
            "SELECT I.title, I.year FROM inproc I WHERE I.ID = 7")
        assert result.rows == [("Paper 7", 1985 + 7 % 20)]


class TestJoins:
    JOIN_SQL = ("SELECT I.ID, A.name FROM inproc I, author A "
                "WHERE I.booktitle = 'SIGMOD CONFERENCE' AND I.ID = A.PID")

    def expected_join(self, db):
        sigmod = {r[0] for r in python_filter(db, "SIGMOD CONFERENCE")}
        return sorted((r[1], r[2]) for r in db.catalog.table("author").rows
                      if r[1] in sigmod)

    def test_hash_join_matches_python(self, db):
        result = db.execute(self.JOIN_SQL)
        assert sorted(result.rows) == self.expected_join(db)

    def test_results_stable_across_indexes(self, db):
        before = sorted(db.execute(self.JOIN_SQL).rows)
        db.create_index("ix_booktitle", "inproc", ["booktitle"],
                        included_columns=["title", "year"])
        db.create_index("ix_author_pid", "author", ["PID"],
                        included_columns=["name"])
        after = sorted(db.execute(self.JOIN_SQL).rows)
        db.catalog.drop_index("ix_booktitle")
        db.catalog.drop_index("ix_author_pid")
        assert before == after

    def test_indexes_reduce_cost(self, db):
        baseline = db.execute(self.JOIN_SQL).cost
        db.create_index("ix_bt2", "inproc", ["booktitle"],
                        included_columns=["title", "year"])
        tuned = db.execute(self.JOIN_SQL).cost
        db.catalog.drop_index("ix_bt2")
        assert tuned < baseline

    def test_union_all_with_order(self, db):
        sql = ("SELECT I.ID, I.title, NULL FROM inproc I "
               "WHERE I.booktitle = 'WWW' "
               "UNION ALL "
               "SELECT I.ID, NULL, A.name FROM inproc I, author A "
               "WHERE I.booktitle = 'WWW' AND I.ID = A.PID ORDER BY 1")
        result = db.execute(sql)
        ids = [r[0] for r in result.rows]
        assert ids == sorted(ids)
        www = python_filter(db, "WWW")
        n_authors = sum(1 for a in db.catalog.table("author").rows
                        if a[1] in {r[0] for r in www})
        assert len(result.rows) == len(www) + n_authors

    def test_exists_subquery(self, db):
        sql = ("SELECT I.ID FROM inproc I WHERE I.year = 1999 AND EXISTS "
               "(SELECT A.ID FROM author A WHERE A.PID = I.ID "
               "AND A.name = 'author7')")
        result = db.execute(sql)
        with_author = {a[1] for a in db.catalog.table("author").rows
                       if a[2] == "author7"}
        expected = [r[0] for r in db.catalog.table("inproc").rows
                    if r[4] == 1999 and r[0] in with_author]
        assert sorted(r[0] for r in result.rows) == sorted(expected)

    def test_exists_uses_index_when_available(self, db):
        sql = ("SELECT I.ID FROM inproc I WHERE I.year = 1999 AND EXISTS "
               "(SELECT A.ID FROM author A WHERE A.PID = I.ID)")
        no_index = db.execute(sql)
        db.create_index("ix_pid_probe", "author", ["PID"])
        with_index = db.execute(sql)
        db.catalog.drop_index("ix_pid_probe")
        assert sorted(no_index.rows) == sorted(with_index.rows)

    def test_or_with_exists(self, db):
        sql = ("SELECT I.ID FROM inproc I "
               "WHERE I.year = 1998 AND (I.title = 'Paper 13' OR EXISTS "
               "(SELECT A.ID FROM author A WHERE A.PID = I.ID "
               "AND A.name = 'author55'))")
        result = db.execute(sql)
        with_author = {a[1] for a in db.catalog.table("author").rows
                       if a[2] == "author55"}
        expected = [r[0] for r in db.catalog.table("inproc").rows
                    if r[4] == 1998 and (r[2] == "Paper 13"
                                         or r[0] in with_author)]
        assert sorted(r[0] for r in result.rows) == sorted(expected)


class TestMaterializedViewPlanning:
    VIEW_DEF = JoinViewDefinition(
        parent_table="inproc", child_table="author", child_fk_column="PID",
        columns=(("pub_id", ("inproc", "ID")),
                 ("booktitle", ("inproc", "booktitle")),
                 ("name", ("author", "name"))))

    SQL = ("SELECT I.ID, A.name FROM inproc I, author A "
           "WHERE I.booktitle = 'ICDE' AND I.ID = A.PID")

    def test_view_substitution_preserves_results(self, db):
        before = sorted(db.execute(self.SQL).rows)
        db.create_materialized_view("v_pub_author", self.VIEW_DEF)
        after_result = db.execute(self.SQL)
        db.catalog.drop_table("v_pub_author")
        assert sorted(after_result.rows) == before
        assert "v_pub_author" in after_result.plan.objects_used()

    def test_view_reduces_cost(self, db):
        baseline = db.execute(self.SQL).cost
        db.create_materialized_view("v_pub_author2", self.VIEW_DEF)
        tuned = db.execute(self.SQL).cost
        db.catalog.drop_table("v_pub_author2")
        assert tuned < baseline


class TestEstimates:
    def test_estimate_close_to_measured_for_scan(self, db):
        sql = "SELECT I.ID FROM inproc I WHERE I.booktitle = 'VLDB'"
        planned = db.estimate(sql)
        measured = db.execute(sql)
        assert planned.est_cost == pytest.approx(measured.cost, rel=0.5)

    def test_what_if_index_lowers_estimate(self, db):
        from repro.engine import Index
        sql = "SELECT I.ID, I.year FROM inproc I WHERE I.booktitle = 'VLDB'"
        base = db.estimate(sql).est_cost
        hypothetical = Index("hyp", "inproc", ("booktitle",),
                             included_columns=("year",))
        tuned = db.estimate(sql, extra_indexes=[hypothetical]).est_cost
        assert tuned < base

    def test_execute_never_uses_hypothetical(self, db):
        sql = "SELECT I.ID FROM inproc I WHERE I.booktitle = 'VLDB'"
        result = db.execute(sql)
        assert "hyp" not in result.plan.objects_used()

    def test_objects_used_reports_indexes(self, db):
        db.create_index("ix_year", "inproc", ["year"])
        sql = "SELECT I.ID FROM inproc I WHERE I.year = 1987"
        used = db.execute(sql).plan.objects_used()
        db.catalog.drop_index("ix_year")
        assert "ix_year" in used
