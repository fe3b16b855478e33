"""Unit tests for catalog, statistics, index model, and expressions."""

import math

import pytest

from repro.engine import (Column, ColumnStats, Database, Index,
                          JoinViewDefinition, SQLType, Table, TableStats)
from repro.engine.expressions import compile_predicate, compile_scalar
from repro.engine.types import PAGE_FILL_FACTOR, PAGE_SIZE
from repro.errors import CatalogError
from repro.sqlast import (And, ColumnRef, Comparison, ComparisonOp, IsNull,
                          Literal, Or)


class TestTable:
    def make(self):
        return Table("t", [Column("ID", SQLType.INTEGER, False),
                           Column("name", SQLType.VARCHAR),
                           Column("n", SQLType.INTEGER)])

    def test_column_lookup(self):
        table = self.make()
        assert table.column("name").sql_type == SQLType.VARCHAR
        assert table.column_position("n") == 2
        assert table.has_column("ID")
        with pytest.raises(CatalogError):
            table.column("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("x", SQLType.INTEGER),
                        Column("x", SQLType.INTEGER)])

    def test_insert_checks_width(self):
        table = self.make()
        table.insert((1, "a", 2))
        with pytest.raises(CatalogError):
            table.insert((1, "a"))

    def test_stats_only_row_count(self):
        table = self.make()
        table.row_count_estimate = 5000
        assert not table.is_materialized
        assert table.row_count == 5000

    def test_page_count_grows_with_rows(self):
        table = self.make()
        table.set_rows([(i, "x" * 10, i) for i in range(10000)])
        assert table.page_count > 10
        assert table.size_bytes == table.page_count * 8192


class TestDatabaseDDL:
    def test_create_and_drop(self):
        db = Database()
        db.create_table("a", [Column("ID", SQLType.INTEGER, False)])
        with pytest.raises(CatalogError):
            db.create_table("a", [Column("ID", SQLType.INTEGER, False)])
        db.create_index("ix", "a", ["ID"])
        db.catalog.drop_table("a")
        assert "ix" not in db.catalog.indexes

    def test_index_on_unknown_table_rejected(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.create_index("ix", "nope", ["x"])

    def test_pk_indexes_built_once(self):
        db = Database()
        db.create_table("a", [Column("ID", SQLType.INTEGER, False)])
        db.insert_rows("a", [(1,), (2,)])
        db.build_primary_key_indexes()
        db.build_primary_key_indexes()  # idempotent
        assert "pk_a" in db.catalog.indexes


class TestIndexModel:
    def table(self, rows=10000):
        t = Table("t", [Column("ID", SQLType.INTEGER, False),
                        Column("a", SQLType.VARCHAR),
                        Column("b", SQLType.INTEGER)])
        t.row_count_estimate = rows
        return t

    def test_covering(self):
        table = self.table()
        ix = Index("ix", "t", ("a",), included_columns=("b",))
        assert ix.covers({"a", "b"}, table)
        assert ix.covers({"a", "b", "ID"}, table)  # PK rides in the leaf
        assert not ix.covers({"a", "b", "c"}, table)

    def test_clustered_covers_everything(self):
        table = self.table()
        ix = Index("pk", "t", ("ID",), clustered=True)
        assert ix.covers({"a", "b", "ID"}, table)
        assert ix.size_bytes(table) == 0

    def test_clustered_leaves_are_the_rows(self):
        """A clustered seek reads table pages: as many leaf entries fit
        a page as rows do, so its leaves are the table's pages."""
        table = self.table()
        clustered = Index("pk", "t", ("ID",), clustered=True)
        secondary = Index("ix", "t", ("ID",))
        per_page = clustered.entries_per_page(table)
        assert per_page == int(PAGE_SIZE * PAGE_FILL_FACTOR
                               // table.row_width)
        assert math.ceil(table.row_count / per_page) \
            == clustered.leaf_page_count(table) == table.page_count
        assert per_page < secondary.entries_per_page(table)

    def test_size_scales_with_columns(self):
        table = self.table()
        narrow = Index("n", "t", ("b",))
        wide = Index("w", "t", ("b",), included_columns=("a",))
        assert wide.size_bytes(table) > narrow.size_bytes(table)

    def test_key_and_included_overlap_rejected(self):
        with pytest.raises(CatalogError):
            Index("ix", "t", ("a",), included_columns=("a",))

    def test_height_reasonable(self):
        table = self.table(rows=1_000_000)
        ix = Index("ix", "t", ("b",))
        assert 2 <= ix.height(table) <= 4

    def test_build_requires_data(self):
        table = self.table()
        ix = Index("ix", "t", ("b",))
        with pytest.raises(CatalogError):
            ix.build(table)


class TestColumnStats:
    def test_eq_selectivity_uniform(self):
        stats = ColumnStats.from_values(list(range(100)) * 10)
        assert stats.eq_selectivity(50) == pytest.approx(0.01, rel=0.01)

    def test_eq_out_of_range_is_zero(self):
        stats = ColumnStats.from_values(list(range(100)))
        assert stats.eq_selectivity(1000) == 0.0
        assert stats.eq_selectivity(-5) == 0.0

    def test_range_selectivity(self):
        stats = ColumnStats.from_values(list(range(1000)))
        assert stats.range_selectivity("<", 500) == pytest.approx(0.5, abs=0.06)
        assert stats.range_selectivity(">=", 900) == pytest.approx(0.1, abs=0.06)
        assert stats.range_selectivity(">", 2000) == 0.0
        assert stats.range_selectivity("<=", 2000) == pytest.approx(1.0, abs=0.01)

    def test_null_fraction(self):
        stats = ColumnStats.from_values([1, None, None, 4])
        assert stats.null_fraction == 0.5
        assert stats.eq_selectivity(1) == pytest.approx(0.25, abs=0.05)

    def test_all_null_column(self):
        stats = ColumnStats.from_values([None] * 10)
        assert stats.null_fraction == 1.0
        assert stats.eq_selectivity("x") == 0.0

    def test_string_widths(self):
        stats = ColumnStats.from_values(["abcd", "ef"], is_string=True)
        assert stats.avg_width == 3

    def test_scaled_keeps_distribution(self):
        stats = ColumnStats.from_values(list(range(100)) * 5)
        scaled = stats.scaled(100)
        assert scaled.row_count == 100
        assert scaled.n_distinct == 100
        assert scaled.range_selectivity("<", 50) == \
            pytest.approx(stats.range_selectivity("<", 50), abs=0.02)

    def test_skewed_histogram(self):
        values = [1] * 900 + list(range(2, 102))
        stats = ColumnStats.from_values(values)
        # Equi-depth histogram: most buckets end at 1, so <=1 is ~90%.
        assert stats.range_selectivity("<=", 1) == pytest.approx(0.9, abs=0.1)


class TestExpressions:
    def resolver(self):
        positions = {"x": 0, "y": 1, "s": 2}
        return lambda ref: (ref.table or "t", positions[ref.column])

    def test_scalar_literal_and_column(self):
        resolve = self.resolver()
        lit = compile_scalar(Literal(7), resolve)
        col = compile_scalar(ColumnRef("t", "y"), resolve)
        env = {"t": (1, 2, "a")}
        assert lit(env) == 7
        assert col(env) == 2

    def test_comparison_null_is_false(self):
        resolve = self.resolver()
        pred = compile_predicate(
            Comparison(ColumnRef("t", "x"), ComparisonOp.EQ, Literal(1)),
            resolve)
        assert pred({"t": (1, 0, "")})
        assert not pred({"t": (None, 0, "")})

    def test_cross_type_numeric_coercion(self):
        resolve = self.resolver()
        pred = compile_predicate(
            Comparison(ColumnRef("t", "x"), ComparisonOp.GE, Literal("5")),
            resolve)
        assert pred({"t": (7, 0, "")})
        assert not pred({"t": (3, 0, "")})

    def test_and_or_is_null(self):
        resolve = self.resolver()
        expr = And((
            Or((Comparison(ColumnRef("t", "x"), ComparisonOp.EQ, Literal(1)),
                Comparison(ColumnRef("t", "y"), ComparisonOp.EQ, Literal(9)))),
            IsNull(ColumnRef("t", "s")),
        ))
        pred = compile_predicate(expr, resolve)
        assert pred({"t": (1, 0, None)})
        assert not pred({"t": (1, 0, "set")})
        assert pred({"t": (0, 9, None)})
        assert not pred({"t": (0, 0, None)})


class TestMaterializedView:
    def make_db(self):
        db = Database()
        db.create_table("p", [Column("ID", SQLType.INTEGER, False),
                              Column("name", SQLType.VARCHAR)])
        db.create_table("c", [Column("ID", SQLType.INTEGER, False),
                              Column("PID", SQLType.INTEGER),
                              Column("val", SQLType.INTEGER)])
        db.insert_rows("p", [(1, "a"), (2, "b")])
        db.insert_rows("c", [(10, 1, 100), (11, 1, 110), (12, 2, 120)])
        db.analyze()
        return db

    def definition(self):
        return JoinViewDefinition(
            parent_table="p", child_table="c", child_fk_column="PID",
            columns=(("p_name", ("p", "name")), ("c_val", ("c", "val"))))

    def test_populate(self):
        db = self.make_db()
        view = db.create_materialized_view("v", self.definition())
        assert sorted(view.rows) == [("a", 100), ("a", 110), ("b", 120)]

    def test_view_row_count_derived_without_data(self):
        db = Database()
        db.create_table("p", [Column("ID", SQLType.INTEGER, False),
                              Column("name", SQLType.VARCHAR)])
        db.create_table("c", [Column("ID", SQLType.INTEGER, False),
                              Column("PID", SQLType.INTEGER),
                              Column("val", SQLType.INTEGER)])
        db.set_table_stats("c", TableStats(row_count=500))
        view = db.create_materialized_view("v", self.definition())
        assert db.stats.table("v").row_count == 500
