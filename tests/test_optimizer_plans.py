"""Unit tests pinning the optimizer's plan-selection behaviour."""

import random

import pytest

from repro.engine import Column, Database, Index, SQLType
from repro.engine.optimizer import Optimizer
from repro.engine.plans import (HashJoin, IndexNestedLoopJoin, IndexSeek,
                                SeqScan)
from repro.sqlast import parse_sql


def _top_scan(plan_node):
    """Descend to the access-path node of a single-table plan."""
    node = plan_node
    while node.children():
        node = node.children()[0]
    return node


@pytest.fixture(scope="module")
def db():
    rng = random.Random(11)
    database = Database()
    database.create_table("big", [
        Column("ID", SQLType.INTEGER, False),
        Column("PID", SQLType.INTEGER),
        Column("k", SQLType.VARCHAR),
        Column("v", SQLType.INTEGER),
        Column("wide", SQLType.VARCHAR),
    ])
    database.create_table("small", [
        Column("ID", SQLType.INTEGER, False),
        Column("PID", SQLType.INTEGER),
        Column("tag", SQLType.VARCHAR),
    ])
    database.insert_rows("big", [
        (i, 0, f"key{rng.randrange(1000)}", rng.randrange(100),
         "x" * 50) for i in range(20000)])
    database.insert_rows("small", [
        (100_000 + j, rng.randrange(20000), f"t{j % 20}")
        for j in range(500)])
    database.analyze()
    database.build_primary_key_indexes()
    return database


class TestAccessPaths:
    def test_selective_predicate_uses_index(self, db):
        db.create_index("ix_k", "big", ["k"])
        try:
            plan = db.explain("SELECT b.ID FROM big b WHERE b.k = 'key5'")
            scan = _top_scan(plan.root)
            assert isinstance(scan, IndexSeek)
        finally:
            db.catalog.drop_index("ix_k")

    def test_unselective_predicate_prefers_scan(self, db):
        # b.wide is not covered by the index, so an unselective range
        # would pay a random fetch per row: the scan must win.
        db.create_index("ix_v", "big", ["v"])
        try:
            plan = db.explain("SELECT b.wide FROM big b WHERE b.v >= 1")
            scan = _top_scan(plan.root)
            assert isinstance(scan, SeqScan)
        finally:
            db.catalog.drop_index("ix_v")

    def test_index_only_scan_beats_table_scan_for_narrow_output(self, db):
        # Selecting only the PK rides in the index leaves: index-only
        # access to the narrow index wins even at selectivity ~1.
        db.create_index("ix_v2", "big", ["v"])
        try:
            plan = db.explain("SELECT b.ID FROM big b WHERE b.v >= 1")
            scan = _top_scan(plan.root)
            assert isinstance(scan, IndexSeek)
            assert scan.covering
        finally:
            db.catalog.drop_index("ix_v2")

    def test_covering_index_detected(self, db):
        db.create_index("ix_cov", "big", ["k"], included_columns=["v"])
        try:
            plan = db.explain("SELECT b.v FROM big b WHERE b.k = 'key5'")
            scan = _top_scan(plan.root)
            assert isinstance(scan, IndexSeek)
            assert scan.covering
        finally:
            db.catalog.drop_index("ix_cov")

    def test_non_covering_costlier_than_covering(self, db):
        covering = Index("h1", "big", ("k",), included_columns=("wide",))
        plain = Index("h2", "big", ("k",))
        sql = "SELECT b.wide FROM big b WHERE b.k = 'key5'"
        with_covering = db.estimate(sql, extra_indexes=[covering]).est_cost
        with_plain = db.estimate(sql, extra_indexes=[plain]).est_cost
        assert with_covering < with_plain

    def test_composite_index_eq_plus_range(self, db):
        db.create_index("ix_kv", "big", ["k", "v"])
        try:
            plan = db.explain(
                "SELECT b.ID FROM big b WHERE b.k = 'key5' AND b.v >= 50")
            scan = _top_scan(plan.root)
            assert isinstance(scan, IndexSeek)
            assert scan.range_bounds is not None
        finally:
            db.catalog.drop_index("ix_kv")


class TestJoinSelection:
    SQL = ("SELECT b.ID, s.tag FROM big b, small s "
           "WHERE b.k = 'key5' AND s.PID = b.ID")

    def test_hash_join_without_indexes(self, db):
        plan = db.explain(self.SQL)
        labels = plan.root.explain()
        assert "HashJoin" in labels

    def test_fk_index_reduces_join_cost(self, db):
        before = db.estimate(self.SQL).est_cost
        db.create_index("ix_spid", "small", ["PID"],
                        included_columns=["tag"])
        db.create_index("ix_bk", "big", ["k"])
        try:
            after = db.estimate(self.SQL).est_cost
            assert after < before
        finally:
            db.catalog.drop_index("ix_spid")
            db.catalog.drop_index("ix_bk")

    def test_inlj_chosen_when_inner_scan_is_expensive(self, db):
        # A large inner table with an FK index and a tiny outer: probing
        # beats scanning+hashing the whole inner side.
        import random as _random
        rng = _random.Random(5)
        db.create_table("many", [
            Column("ID", SQLType.INTEGER, False),
            Column("PID", SQLType.INTEGER),
            Column("payload", SQLType.VARCHAR),
        ])
        db.insert_rows("many", [
            (500_000 + j, rng.randrange(20000), "y" * 40)
            for j in range(30000)])
        db.analyze("many")
        db.create_index("ix_many_pid", "many", ["PID"],
                        included_columns=["payload"])
        db.create_index("ix_bk2", "big", ["k"])
        try:
            sql = ("SELECT b.ID, m.payload FROM big b, many m "
                   "WHERE b.k = 'key5' AND m.PID = b.ID")
            plan = db.explain(sql)
            assert "IndexNestedLoopJoin" in plan.root.explain()
        finally:
            db.catalog.drop_index("ix_many_pid")
            db.catalog.drop_index("ix_bk2")
            db.catalog.drop_table("many")

    def test_join_orders_give_same_rows(self, db):
        no_index = db.execute(self.SQL)
        db.create_index("ix_spid2", "small", ["PID"],
                        included_columns=["tag"])
        with_index = db.execute(self.SQL)
        db.catalog.drop_index("ix_spid2")
        assert sorted(no_index.rows) == sorted(with_index.rows)


class TestEstimateAccuracy:
    """The optimizer's estimates must track measured costs, since the
    whole search quality rests on them."""

    @pytest.mark.parametrize("sql", [
        "SELECT b.ID FROM big b WHERE b.k = 'key1'",
        "SELECT b.ID FROM big b WHERE b.v >= 90",
        "SELECT b.ID, s.tag FROM big b, small s WHERE s.PID = b.ID",
    ])
    def test_within_factor_three(self, db, sql):
        estimated = db.estimate(sql).est_cost
        measured = db.execute(sql).cost
        assert estimated == pytest.approx(measured, rel=2.0), \
            f"estimate {estimated:.1f} vs measured {measured:.1f}"

    def test_row_estimates_reasonable(self, db):
        plan = db.explain("SELECT b.ID FROM big b WHERE b.k = 'key1'")
        # ~20 duplicates of each key out of 20000 rows.
        assert 2 <= plan.root.est_rows <= 200
