"""Unit + property tests for the engine's index entries (SortedEntries)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Index, SortedEntries, Table, encode_key
from repro.engine.types import SQLType


def lookup(entries: SortedEntries, key: tuple) -> list:
    """Payloads whose key equals ``key`` (or starts with it)."""
    return [p for _, p in entries.range_scan(key, key)]


class TestBasics:
    def test_empty_tree(self):
        entries = SortedEntries([])
        assert len(entries) == 0
        assert lookup(entries, ("x",)) == []
        assert list(entries.range_scan(None, None)) == []
        assert list(entries.scan_all()) == []

    def test_duplicates(self):
        entries = SortedEntries([(("dup",), i) for i in range(50)])
        assert lookup(entries, ("dup",)) == list(range(50))

    def test_bulk_load_duplicates_across_leaves(self):
        # A long run of duplicates is found whole, from its first
        # entry, in build order.
        entries = [(("A",), i) for i in range(500)]
        entries += [(("B",), i) for i in range(10)]
        random.Random(3).shuffle(entries)
        found = SortedEntries(entries)
        assert lookup(found, ("A",)) == \
            [p for k, p in entries if k == ("A",)]
        assert len(lookup(found, ("B",))) == 10

    def test_range_scan_bounds(self):
        entries = SortedEntries([((i,), i) for i in range(100)])
        got = [p for _, p in entries.range_scan((10,), (20,))]
        assert got == list(range(10, 21))
        got = [p for _, p in entries.range_scan((10,), (20,),
                                                lo_inclusive=False,
                                                hi_inclusive=False)]
        assert got == list(range(11, 20))

    def test_range_scan_open_bounds(self):
        entries = SortedEntries([((i,), i) for i in range(50)])
        assert [p for _, p in entries.range_scan(None, (5,))] == \
            list(range(6))
        assert [p for _, p in entries.range_scan((45,), None)] == \
            list(range(45, 50))

    def test_prefix_range_on_composite_key(self):
        entries = SortedEntries([((c, i), (c, i))
                                 for c in "abc" for i in range(10)])
        assert lookup(entries, ("b",)) == [("b", i) for i in range(10)]
        got = [p for _, p in entries.range_scan(("a",), ("c",),
                                                lo_inclusive=False,
                                                hi_inclusive=False)]
        assert got == [("b", i) for i in range(10)]

    def test_none_sorts_first(self):
        entries = SortedEntries([((None,), "null"), ((1,), "one"),
                                 (("z",), "str")])
        assert [p for _, p in entries.scan_all()] == ["null", "one", "str"]

    def test_mixed_type_keys(self):
        entries = SortedEntries([((1,), "int"), (("1",), "str")])
        assert lookup(entries, (1,)) == ["int"]
        assert lookup(entries, ("1",)) == ["str"]

    def test_scan_all_is_sorted(self):
        values = random.Random(7).sample(range(10000), 1000)
        entries = SortedEntries([((v,), v) for v in values])
        assert [p for _, p in entries.scan_all()] == sorted(values)

    def test_range_scan_is_lazy(self):
        # An EXISTS probe stops at its first match, so a scan is an
        # iterator, not a list of every match.
        entries = SortedEntries([((i % 3,), i) for i in range(30)])
        scan = entries.range_scan((1,), (1,))
        assert iter(scan) is scan
        assert next(scan) == (encode_key((1,)), 1)


class TestIndexBuild:
    def test_equal_keys_come_back_in_row_order(self):
        table = Table("t", [Column("ID", SQLType.INTEGER, False),
                            Column("k", SQLType.VARCHAR)])
        keys = ["b", "a", None, "b", "a", "b", None, "a"]
        table.set_rows([(i, k) for i, k in enumerate(keys)])
        index = Index("ix", "t", ("k",))
        index.build(table)
        assert [p for _, p in index.tree.scan_all()] == [2, 6, 1, 4, 7,
                                                          0, 3, 5]
        assert lookup(index.tree, ("b",)) == [0, 3, 5]


class TestEncodeKey:
    def test_total_order_none_first(self):
        assert encode_key((None,)) < encode_key((0,)) < encode_key(("a",))

    def test_numeric_before_string(self):
        assert encode_key((999999,)) < encode_key(("0",))

    def test_bool_as_int(self):
        assert encode_key((True,)) == encode_key((1,))


@given(st.lists(st.integers(-100, 100), min_size=1),
       st.integers(-100, 100), st.integers(-100, 100))
@settings(max_examples=100, deadline=None)
def test_property_range_scan_equals_filter(values, a, b):
    lo, hi = min(a, b), max(a, b)
    entries = SortedEntries([((v,), v) for v in values])
    got = sorted(p for _, p in entries.range_scan((lo,), (hi,)))
    expected = sorted(v for v in values if lo <= v <= hi)
    assert got == expected


def _inside(prefix: tuple, bound: tuple | None, inclusive: bool,
            below: bool) -> bool:
    """Whether a key prefix is on the inside of one end of a scan."""
    if bound is None:
        return True
    cut = encode_key(prefix[:len(bound)])
    edge = encode_key(bound)
    if cut == edge:
        return inclusive
    return cut < edge if below else cut > edge


@given(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 5)),
                          st.integers(-5, 5)), min_size=1),
       st.one_of(st.none(), st.integers(0, 5)),
       st.one_of(st.none(), st.integers(-5, 5)),
       st.one_of(st.none(), st.integers(0, 5)),
       st.one_of(st.none(), st.integers(-5, 5)),
       st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_property_two_column_range_scan_equals_filter(
        keys, lo_head, lo_tail, hi_head, hi_tail, lo_inc, hi_inc):
    # A bound is absent, a one-column prefix, or a whole two-column key.
    lo = None if lo_head is None else \
        (lo_head,) if lo_tail is None else (lo_head, lo_tail)
    hi = None if hi_head is None else \
        (hi_head,) if hi_tail is None else (hi_head, hi_tail)
    entries = SortedEntries([(key, i) for i, key in enumerate(keys)])
    got = [p for _, p in entries.range_scan(lo, hi, lo_inc, hi_inc)]
    expected = sorted(
        (i for i, key in enumerate(keys)
         if _inside(key, lo, lo_inc, below=False)
         and _inside(key, hi, hi_inc, below=True)),
        key=lambda i: (encode_key(keys[i]), i))
    assert got == expected
