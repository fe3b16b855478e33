"""Column/table statistics and selectivity estimation.

Statistics mirror what the paper's architecture (Section 4.1) collects:

1. the range of ID values,
2. the distribution of PID (parent fan-out),
3. the value distribution of each column mapped from a base type.

Value distributions are equi-depth histograms. The same objects support
*derived* statistics: the mapping layer collects stats once on the
fully-split schema and derives them for any other mapping from
joint-presence counts — the ``scaled`` constructor implements that
derivation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

_DEFAULT_BUCKETS = 32


def _sort_key(value):
    """Total order over mixed comparable values (NULL never appears)."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))


_NUMBERS = {bool, int, float}       # the kinds _sort_key ranks by value


@dataclass
class ColumnStats:
    """Statistics for one column.

    ``boundaries`` are equi-depth bucket upper bounds over the non-null
    values (ascending); each bucket holds ``bucket_rows`` rows. The
    histogram may be empty (all-null or unanalyzed column), in which case
    estimation falls back to uniformity assumptions.
    """

    row_count: int
    null_count: int = 0
    n_distinct: int = 0
    min_value: object = None
    max_value: object = None
    boundaries: list = field(default_factory=list)
    bucket_rows: float = 0.0
    avg_width: int | None = None

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: list, n_buckets: int = _DEFAULT_BUCKETS,
                    is_string: bool = False) -> "ColumnStats":
        """Compute stats from actual column values (None = NULL)."""
        row_count = len(values)
        non_null = [v for v in values if v is not None]
        null_count = row_count - len(non_null)
        if not non_null:
            return cls(row_count=row_count, null_count=null_count)
        kinds = set(map(type, non_null))
        if kinds == {str} or kinds <= _NUMBERS:
            # One kind of value: _sort_key would order and tell them
            # apart exactly as they do themselves.
            non_null.sort()
            n_distinct = len(set(non_null))
        else:
            non_null.sort(key=_sort_key)
            n_distinct = len({_sort_key(v) for v in non_null})
        width = None
        if is_string:
            # Round half up: int() truncation systematically underpriced
            # short string columns in storage-bound accounting.
            lengths = (map(len, non_null) if kinds == {str}
                       else (len(str(v)) for v in non_null))
            mean = sum(lengths) / len(non_null)
            width = max(1, int(math.floor(mean + 0.5)))
        buckets = min(n_buckets, len(non_null))
        boundaries = []
        for b in range(1, buckets + 1):
            pos = min(len(non_null) - 1,
                      int(round(b * len(non_null) / buckets)) - 1)
            boundaries.append(non_null[pos])
        return cls(
            row_count=row_count,
            null_count=null_count,
            n_distinct=n_distinct,
            min_value=non_null[0],
            max_value=non_null[-1],
            boundaries=boundaries,
            bucket_rows=len(non_null) / buckets,
            avg_width=width,
        )

    def scaled(self, new_row_count: int, new_null_count: int | None = None) -> "ColumnStats":
        """Derive stats for the same value distribution at another size.

        Used when a mapping transformation changes a table's cardinality
        (e.g. horizontal partitioning) without changing which values the
        column draws from. Distinct counts are capped at the new size.
        """
        non_null_old = max(1, self.row_count - self.null_count)
        if new_null_count is None:
            ratio = self.null_count / max(1, self.row_count)
            new_null_count = int(round(new_row_count * ratio))
        new_non_null = max(0, new_row_count - new_null_count)
        return ColumnStats(
            row_count=new_row_count,
            null_count=new_null_count,
            n_distinct=min(self.n_distinct, new_non_null),
            min_value=self.min_value,
            max_value=self.max_value,
            boundaries=list(self.boundaries),
            bucket_rows=(self.bucket_rows * new_non_null / non_null_old
                         if self.boundaries else 0.0),
            avg_width=self.avg_width,
        )

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------
    @property
    def null_fraction(self) -> float:
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count

    @property
    def non_null_fraction(self) -> float:
        return 1.0 - self.null_fraction

    def eq_selectivity(self, value) -> float:
        """Fraction of rows equal to ``value``."""
        if self.row_count == 0 or value is None:
            return 0.0
        if self.n_distinct <= 0:
            return 0.0
        if self.min_value is not None:
            key = _sort_key(value)
            if key < _sort_key(self.min_value) or key > _sort_key(self.max_value):
                return 0.0
        return self.non_null_fraction / self.n_distinct

    def range_selectivity(self, op: str, value) -> float:
        """Fraction of rows satisfying ``column <op> value``.

        ``op`` is one of ``<``, ``<=``, ``>``, ``>=``.
        """
        if self.row_count == 0 or value is None:
            return 0.0
        le_fraction = self._fraction_le(value)
        eq = self.eq_selectivity(value)
        # All results are capped at the non-null fraction: the uniform
        # eq-estimate can otherwise exceed the histogram's residual mass
        # (e.g. >= min on a skewed column), breaking monotonicity.
        cap = self.non_null_fraction
        if op == "<=":
            return _clamp(le_fraction, hi=cap)
        if op == "<":
            return _clamp(le_fraction - eq, hi=cap)
        if op == ">":
            return _clamp(self.non_null_fraction - le_fraction, hi=cap)
        if op == ">=":
            return _clamp(self.non_null_fraction - le_fraction + eq, hi=cap)
        raise ValueError(f"not a range operator: {op!r}")

    def _fraction_le(self, value) -> float:
        """Estimated fraction of all rows with column <= value."""
        if not self.boundaries:
            return self.non_null_fraction / 2
        key = _sort_key(value)
        keys = [_sort_key(b) for b in self.boundaries]
        if key < keys[0]:
            return 0.0
        if key >= keys[-1]:
            return self.non_null_fraction
        bucket = bisect_left(keys, key)
        full = bisect_right(keys, key)
        covered = full  # buckets entirely <= value
        # Linear interpolation inside the partially covered bucket when
        # both bounds are numeric.
        partial = 0.0
        if bucket == full and bucket < len(keys):
            lo = self.boundaries[bucket - 1] if bucket > 0 else self.min_value
            hi = self.boundaries[bucket]
            if isinstance(lo, (int, float)) and isinstance(hi, (int, float)) \
                    and not isinstance(lo, bool) and hi > lo \
                    and isinstance(value, (int, float)):
                partial = (value - lo) / (hi - lo)
            else:
                partial = 0.5
        rows = (covered + partial) * self.bucket_rows
        return _clamp(rows / self.row_count if self.row_count else 0.0,
                      hi=self.non_null_fraction)


def _clamp(x: float, lo: float = 0.0, hi: float = 1.0) -> float:
    return max(lo, min(hi, x))


@dataclass
class TableStats:
    """Per-table statistics: row count plus per-column stats."""

    row_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)


class StatisticsCatalog:
    """All statistics known to a database, keyed by table name."""

    def __init__(self):
        self.tables: dict[str, TableStats] = {}

    def set_table(self, name: str, stats: TableStats) -> None:
        self.tables[name] = stats

    def table(self, name: str) -> TableStats | None:
        return self.tables.get(name)

    def column(self, table: str, column: str) -> ColumnStats | None:
        table_stats = self.tables.get(table)
        if table_stats is None:
            return None
        return table_stats.column(column)

    def analyze_table(self, table, n_buckets: int = _DEFAULT_BUCKETS) -> TableStats:
        """Compute statistics from a materialized table's rows."""
        from .types import SQLType  # local import to avoid a cycle

        rows = table.rows or []
        stats = TableStats(row_count=len(rows))
        for pos, column in enumerate(table.columns):
            values = [row[pos] for row in rows]
            stats.columns[column.name] = ColumnStats.from_values(
                values, n_buckets=n_buckets,
                is_string=(column.sql_type == SQLType.VARCHAR))
        self.tables[table.name] = stats
        return stats
