"""Direct unit tests for plan operators and cost accounting."""

import pytest

from repro.engine import Column, Database, SQLType
from repro.engine.cost import CostCounter
from repro.engine.plans import IndexSeek, NestedLoopJoin, Runtime, SeqScan
from repro.errors import ExecutionError


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", [Column("ID", SQLType.INTEGER, False),
                                Column("v", SQLType.VARCHAR)])
    database.create_table("u", [Column("ID", SQLType.INTEGER, False),
                                Column("PID", SQLType.INTEGER)])
    database.insert_rows("t", [(i, f"v{i % 3}") for i in range(30)])
    database.insert_rows("u", [(100 + j, j % 10) for j in range(20)])
    database.analyze()
    return database


def runtime(db):
    return Runtime(db.catalog, CostCounter())


class TestSeqScan:
    def test_charges_pages_and_tuples(self, db):
        rt = runtime(db)
        rows = list(SeqScan("t", "t").execute(rt))
        assert len(rows) == 30
        assert rt.counter.seq_pages >= 1
        assert rt.counter.cpu_tuples == 30

    def test_filter_applied(self, db):
        rt = runtime(db)
        pred = lambda env: env["t"][1] == "v1"
        rows = list(SeqScan("t", "t", pred).execute(rt))
        assert len(rows) == 10

    def test_stats_only_table_rejected(self, db):
        db.create_table("ghost", [Column("ID", SQLType.INTEGER, False)])
        with pytest.raises(ExecutionError):
            list(SeqScan("ghost", "g").execute(runtime(db)))


class TestIndexSeek:
    def test_equality_seek(self, db):
        index = db.create_index("ix_v", "t", ["v"])
        rt = runtime(db)
        seek = IndexSeek(index, "t", "t", [lambda env: "v2"])
        rows = list(seek.execute(rt))
        assert len(rows) == 10
        assert all(env["t"][1] == "v2" for env in rows)
        assert rt.counter.random_pages > 0
        db.catalog.drop_index("ix_v")

    def test_null_seek_matches_nothing(self, db):
        index = db.create_index("ix_v2", "t", ["v"])
        seek = IndexSeek(index, "t", "t", [lambda env: None])
        assert list(seek.execute(runtime(db))) == []
        db.catalog.drop_index("ix_v2")

    def test_range_seek(self, db):
        index = db.create_index("ix_id", "t", ["ID"])
        seek = IndexSeek(index, "t", "t", [],
                         range_bounds=(5, True, 9, True))
        rows = list(seek.execute(runtime(db)))
        assert sorted(env["t"][0] for env in rows) == [5, 6, 7, 8, 9]
        db.catalog.drop_index("ix_id")

    def test_covering_skips_fetch_charges(self, db):
        index = db.create_index("ix_v3", "t", ["v"])
        rt_fetch = runtime(db)
        list(IndexSeek(index, "t", "t", [lambda env: "v0"],
                       covering=False).execute(rt_fetch))
        rt_cover = runtime(db)
        list(IndexSeek(index, "t", "t", [lambda env: "v0"],
                       covering=True).execute(rt_cover))
        assert rt_cover.counter.random_pages < rt_fetch.counter.random_pages
        db.catalog.drop_index("ix_v3")


class TestJoins:
    def test_block_nested_loop(self, db):
        join = NestedLoopJoin(
            SeqScan("t", "t"), SeqScan("u", "u"),
            predicate=lambda env: env["t"][0] == env["u"][1])
        rows = list(join.execute(runtime(db)))
        expected = sum(1 for trow in db.catalog.table("t").rows
                       for urow in db.catalog.table("u").rows
                       if trow[0] == urow[1])
        assert len(rows) == expected


class TestCostCounter:
    def test_total_combines_components(self):
        counter = CostCounter()
        counter.charge_seq_pages(10)
        counter.charge_random_pages(2)
        counter.charge_tuples(100)
        assert counter.total > 10 + 8

    def test_determinism(self, db):
        costs = {db.execute("SELECT t.ID FROM t WHERE t.v = 'v1'").cost
                 for _ in range(3)}
        assert len(costs) == 1
