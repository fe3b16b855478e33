"""Property-based tests for statistics invariants.

The optimizer's plan choices (and therefore the whole design search)
rest on these estimates behaving sanely, so the invariants are pinned
with hypothesis across arbitrary value distributions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, ColumnStats, Database, Index, SQLType, Table

values_strategy = st.lists(
    st.one_of(st.integers(-1000, 1000), st.none()),
    min_size=1, max_size=300)

string_values = st.lists(
    st.one_of(st.text(min_size=1, max_size=8), st.none()),
    min_size=1, max_size=200)


@given(values_strategy, st.integers(-1000, 1000))
@settings(max_examples=200, deadline=None)
def test_selectivities_are_probabilities(values, probe):
    stats = ColumnStats.from_values(values)
    assert 0.0 <= stats.eq_selectivity(probe) <= 1.0
    for op in ("<", "<=", ">", ">="):
        assert 0.0 <= stats.range_selectivity(op, probe) <= 1.0


@given(values_strategy, st.integers(-1000, 1000))
@settings(max_examples=200, deadline=None)
def test_le_plus_gt_covers_non_null(values, probe):
    stats = ColumnStats.from_values(values)
    le = stats.range_selectivity("<=", probe)
    gt = stats.range_selectivity(">", probe)
    assert le + gt <= stats.non_null_fraction + 1e-6
    # And the pair partitions the non-null mass (within histogram error).
    assert le + gt >= stats.non_null_fraction - 0.2


@given(values_strategy, st.integers(-1000, 1000), st.integers(-1000, 1000))
@settings(max_examples=200, deadline=None)
def test_range_selectivity_monotone(values, a, b):
    lo, hi = min(a, b), max(a, b)
    stats = ColumnStats.from_values(values)
    assert stats.range_selectivity("<=", lo) <= \
        stats.range_selectivity("<=", hi) + 1e-9
    assert stats.range_selectivity(">=", hi) <= \
        stats.range_selectivity(">=", lo) + 1e-9


@given(values_strategy)
@settings(max_examples=200, deadline=None)
def test_le_selectivity_tracks_truth(values):
    """Histogram estimate of <= median stays near the actual fraction."""
    stats = ColumnStats.from_values(values)
    non_null = sorted(v for v in values if v is not None)
    if not non_null:
        return
    probe = non_null[len(non_null) // 2]
    actual = sum(1 for v in non_null if v <= probe) / len(values)
    estimate = stats.range_selectivity("<=", probe)
    assert abs(estimate - actual) <= 0.25


@given(values_strategy, st.integers(1, 500))
@settings(max_examples=100, deadline=None)
def test_scaled_preserves_probability_bounds(values, new_rows):
    stats = ColumnStats.from_values(values).scaled(new_rows)
    assert stats.row_count == new_rows
    assert 0 <= stats.null_count <= new_rows
    assert stats.n_distinct <= max(new_rows, 1)
    assert 0.0 <= stats.eq_selectivity(0) <= 1.0


# ----------------------------------------------------------------------
# from_values width rounding: regression pinning the storage estimates
# that consume Column.avg_width. int() truncation used to floor the
# mean ("abcd", "ef" -> 3.0 bytes stored as 3, but "abc", "ef", "ab"
# -> 2.33 stored as 2 while 2.33 rounds to 2; "abcd", "efg" -> 3.5
# must store as 4, not 3).
# ----------------------------------------------------------------------


def test_from_values_width_rounds_half_up():
    stats = ColumnStats.from_values(["abcd", "efg"], is_string=True)
    assert stats.avg_width == 4
    assert ColumnStats.from_values(["ab"], is_string=True).avg_width == 2


def test_width_rounding_pins_table_and_index_sizes():
    db = Database(name="width-regression")
    table = Table(name="t", columns=[
        Column("ID", SQLType.INTEGER),
        Column("s", SQLType.VARCHAR),
    ], primary_key="ID")
    db.register_table(table)
    db.insert_rows("t", [(i, "abcd" if i % 2 == 0 else "efg")
                         for i in range(100)])
    db.analyze()
    assert table.column("s").width == 4  # mean 3.5 rounds up
    # Width feeds pages-per-table and index entry width directly.
    assert table.row_width == 12 + table.column("ID").width + 4
    index = Index(name="ix_s", table_name="t", key_columns=("s",))
    rounded_entry = index.entry_width(table)
    assert index.size_bytes(table) > 0 and table.size_bytes > 0
    table.column("s").avg_width = 3  # the old truncated estimate
    assert index.entry_width(table) == rounded_entry - 1


@given(string_values, st.text(min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_string_columns_behave(values, probe):
    stats = ColumnStats.from_values(values, is_string=True)
    assert 0.0 <= stats.eq_selectivity(probe) <= 1.0
    assert 0.0 <= stats.range_selectivity("<=", probe) <= 1.0
    if any(v is not None for v in values):
        assert stats.avg_width and stats.avg_width >= 1


# A column of one kind of value is sorted and counted natively; the
# total order over mixed values (_sort_key) stays the definition.
_one_kind = st.one_of(
    st.lists(st.one_of(st.text(max_size=4), st.none()), max_size=120),
    st.lists(st.one_of(st.integers(-50, 50), st.booleans(), st.none(),
                       st.floats(-50, 50).map(lambda x: round(x, 1))),
             max_size=120),
)


@given(_one_kind, st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_one_kind_columns_order_and_count_as_the_total_order_does(values,
                                                                  buckets):
    from repro.engine.statistics import _sort_key
    stats = ColumnStats.from_values(values, n_buckets=buckets)
    non_null = sorted((v for v in values if v is not None), key=_sort_key)
    if not non_null:
        assert stats.n_distinct == 0 and stats.boundaries == []
        return
    assert stats.n_distinct == len({_sort_key(v) for v in non_null})
    n, used = len(non_null), min(buckets, len(non_null))
    expected = [non_null[min(n - 1, int(round(b * n / used)) - 1)]
                for b in range(1, used + 1)]
    # same objects in the same places, not merely equal ones (1 == True)
    same = lambda a, b: [(type(x), x) for x in a] == [(type(x), x) for x in b]
    assert same(stats.boundaries, expected)
    assert same([stats.min_value, stats.max_value],
                [non_null[0], non_null[-1]])
