"""Ablation: choice of the repetition-split count k (paper Section 4.6).

The paper: "a good k is the smallest k such that most instances of the
element have cardinality smaller than k ... For this specific data set,
we find that splitting the first five authors achieves the best balance
between performance and space."

This driver sweeps k over the DBLP author repetition for the motivating
query, measuring executed cost and the loaded data size, and reports
where the k from :meth:`CollectedStats.suggest_split_count` (or the
paper's k = 5 when it suggests none) lands.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backends import loaded_backend
from .harness import DatasetBundle, workload_cost
from .motivating import SigmodAuthors, SplitCount


@dataclass
class SplitCountPoint:
    k: int
    measured_cost: float
    data_bytes: int


@dataclass
class SplitCountSweep:
    points: list[SplitCountPoint]
    split: SplitCount
    baseline_cost: float      # k = 0, i.e. no repetition split
    baseline_bytes: int

    def best_k(self) -> int:
        return min(self.points, key=lambda p: p.measured_cost).k

    def point(self, k: int) -> SplitCountPoint:
        return {p.k: p for p in self.points}[k]

    def rows(self) -> list[list]:
        baseline = SplitCountPoint(0, self.baseline_cost, self.baseline_bytes)
        mark = "<- fallback" if self.split.fallback else "<- suggested"
        return [[p.k, p.measured_cost, f"{p.data_bytes / 1024:.0f} KB",
                 mark if p.k == self.split.k else ""]
                for p in [baseline, *self.points]]


def run_split_count_sweep(bundle: DatasetBundle | None = None,
                          ks: range = range(1, 11)) -> SplitCountSweep:
    bundle = bundle or DatasetBundle.dblp()
    example = SigmodAuthors(bundle)

    def measure(k: int) -> tuple[float, int]:
        # The size is the loaded database's: the what-if statistics
        # the advisor sized the design with report different bytes.
        design = example.design(k)
        with loaded_backend("engine", design.schema, design.configuration,
                            bundle.docs) as engine:
            return (workload_cost(engine, design.sql_queries),
                    engine.db.catalog.total_data_bytes())

    baseline_cost, baseline_bytes = measure(0)
    points = [SplitCountPoint(k, *measure(k)) for k in ks]
    return SplitCountSweep(points=points,
                           split=example.split_count(cmax=max(ks)),
                           baseline_cost=baseline_cost,
                           baseline_bytes=baseline_bytes)
