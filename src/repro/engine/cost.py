"""Cost model constants and the runtime cost counter.

The optimizer *estimates* and the executor *measures* in the same unit:
abstract cost where one sequential page read costs 1.0. Random page
reads cost more (seek penalty), CPU work costs a small per-tuple amount.
Because both sides use identical constants, measured workload "execution
time" is deterministic and directly comparable to optimizer estimates —
the property every experiment in the paper relies on (all results are
ratios between configurations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# One sequential page read = 1.0 cost units.
SEQ_PAGE_COST = 1.0
# A random page read (index traversal, row fetch) is ~4x a sequential one.
RANDOM_PAGE_COST = 4.0
# CPU cost of processing one tuple through an operator. The CPU
# constants are kept low relative to page I/O: the paper's testbed
# (100 MB of data, 2003-era disk) is I/O-bound, and its headline
# orderings (e.g. the Section 1.1 reversal without indexes) only hold in
# an I/O-dominated regime.
CPU_TUPLE_COST = 0.002
# CPU cost of one predicate evaluation / comparison.
CPU_OPERATOR_COST = 0.001
# CPU cost of hashing / probing one tuple.
HASH_TUPLE_COST = 0.002
# Sort cost multiplier: SORT_FACTOR * n * log2(n) comparisons.
SORT_FACTOR = CPU_OPERATOR_COST


@dataclass
class CostCounter:
    """Accumulates measured work during plan execution."""

    seq_pages: float = 0.0
    random_pages: float = 0.0
    cpu_tuples: int = 0
    cpu_operations: int = 0
    hash_tuples: int = 0
    sort_comparisons: float = 0.0

    def charge_seq_pages(self, pages: float) -> None:
        self.seq_pages += pages

    def charge_random_pages(self, pages: float) -> None:
        self.random_pages += pages

    def charge_tuples(self, count: int = 1) -> None:
        self.cpu_tuples += count

    def charge_operations(self, count: int = 1) -> None:
        self.cpu_operations += count

    def charge_hash(self, count: int = 1) -> None:
        self.hash_tuples += count

    def charge_sort(self, comparisons: float) -> None:
        self.sort_comparisons += comparisons

    @property
    def total(self) -> float:
        """Total abstract cost (the unit every experiment reports)."""
        return (self.seq_pages * SEQ_PAGE_COST
                + self.random_pages * RANDOM_PAGE_COST
                + self.cpu_tuples * CPU_TUPLE_COST
                + self.cpu_operations * CPU_OPERATOR_COST
                + self.hash_tuples * HASH_TUPLE_COST
                + self.sort_comparisons * SORT_FACTOR)
