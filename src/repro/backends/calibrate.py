"""Cost-model calibration against measured SQLite execution times.

The paper's Fig. 4 story rests on the optimizer's *estimated* costs
ranking designs the same way a real DBMS's *measured* execution times
do (Greedy ~2x faster than Two-Step, ~20x over considering the logical
design alone). This module closes the loop end to end:

1. run the design searches (greedy, two-step) plus the logical-only
   baseline (the starting mapping with **no** physical structures),
2. realize every design in SQLite — bulk-load, real CREATE INDEX,
   populated view tables — and time the workload with warmup and
   repetition,
3. report the Spearman rank correlation between estimated cost and
   measured wall-clock time, at design granularity and across all
   (design, query) points.

A positive correlation is the end-to-end check that the deterministic
cost counter is a faithful stand-in for a real DBMS on this workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..mapping import MappedSchema, derive_schema, hybrid_inlining
from ..obs import NullTracer, Tracer, get_tracer
from ..physdesign import Configuration
from ..search import (build_stats_only_database, design_for,
                      translate_workload)
from ..sqlast import Query
from ..workload import Workload
from .compare import loaded_backend


def _ranks(values: list[float]) -> list[float]:
    """Average ranks (1-based), ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and \
                values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    if len(xs) != len(ys) or len(xs) < 2:
        return 0.0
    rx, ry = _ranks(xs), _ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    dy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if dx == 0.0 or dy == 0.0:
        return 0.0
    return num / (dx * dy)


@dataclass
class QueryPoint:
    """One (design, query) calibration point."""

    design: str
    query_index: int
    weight: float
    estimated_cost: float
    measured_seconds: float
    rows: int


@dataclass
class DesignPoint:
    """One design's estimate-vs-measurement summary."""

    label: str
    schema: MappedSchema
    configuration: Configuration
    sql_queries: list[tuple[Query, float]]
    estimated_cost: float
    measured_seconds: float = 0.0
    queries: list[QueryPoint] = field(default_factory=list)


@dataclass
class CalibrationReport:
    """Estimated cost vs measured SQLite time across designs."""

    dataset: str
    workload: str
    repeat: int
    warmup: int
    designs: list[DesignPoint] = field(default_factory=list)

    @property
    def design_rank_correlation(self) -> float:
        return spearman([d.estimated_cost for d in self.designs],
                        [d.measured_seconds for d in self.designs])

    @property
    def query_rank_correlation(self) -> float:
        points = [q for d in self.designs for q in d.queries]
        return spearman([q.estimated_cost for q in points],
                        [q.measured_seconds for q in points])

    def design(self, label: str) -> DesignPoint:
        for point in self.designs:
            if point.label == label:
                return point
        raise KeyError(label)

    def describe(self) -> str:
        lines = [f"calibration — {self.dataset} / {self.workload} "
                 f"(repeat={self.repeat}, warmup={self.warmup})",
                 f"{'design':<14} {'est. cost':>12} {'measured s':>12} "
                 f"{'structures':>10}"]
        for d in sorted(self.designs, key=lambda d: d.measured_seconds):
            lines.append(f"{d.label:<14} {d.estimated_cost:>12.1f} "
                         f"{d.measured_seconds:>12.4f} "
                         f"{len(d.configuration):>10}")
        lines.append(f"rank correlation (designs):        "
                     f"{self.design_rank_correlation:+.3f}")
        lines.append(f"rank correlation (design x query): "
                     f"{self.query_rank_correlation:+.3f}")
        return "\n".join(lines)


def logical_only_design(tree, workload: Workload, collected) -> DesignPoint:
    """The baseline that ignores physical design entirely.

    The default (hybrid inlining) mapping with no indexes or views;
    estimated per-query costs come from the same what-if optimizer the
    searches use, on a stats-only database.
    """
    schema = derive_schema(hybrid_inlining(tree))
    sql_queries = translate_workload(workload, schema)
    db = build_stats_only_database(schema, collected)
    db.build_primary_key_indexes()
    estimated = sum(weight * db.estimate(query).est_cost
                    for query, weight in sql_queries)
    return DesignPoint(label="logical-only", schema=schema,
                       configuration=Configuration(),
                       sql_queries=sql_queries, estimated_cost=estimated)


def fill_query_estimates(point: DesignPoint, collected) -> None:
    """Per-query what-if costs of the design (query-level points).

    Uses the same machinery as the searches: a stats-only database with
    statistics derived from the fully-split collection, the design's
    indexes as hypothetical extras, and its views re-derived from the
    base-table statistics.
    """
    from ..engine.matview import derive_view_stats

    db = build_stats_only_database(point.schema, collected,
                                   name=f"calibrate:{point.label}")
    db.build_primary_key_indexes()
    for view in point.configuration.views:
        db.stats.set_table(view.name, derive_view_stats(view, db.stats))
    what_if = db.what_if(point.configuration.indexes,
                         point.configuration.views)
    point.queries = [
        QueryPoint(
            design=point.label, query_index=index, weight=weight,
            estimated_cost=db.estimate_under(what_if, query).est_cost,
            measured_seconds=0.0, rows=0)
        for index, (query, weight) in enumerate(point.sql_queries)]


def run_calibration(bundle, workload: Workload,
                    algorithms: tuple[str, ...] = ("greedy", "two-step"),
                    repeat: int = 3, warmup: int = 1,
                    tracer: Tracer | NullTracer | None = None
                    ) -> CalibrationReport:
    """The `repro calibrate` entry point.

    ``bundle`` is a :class:`repro.datasets.DatasetBundle`; the report
    covers the searches' designs plus the logical-only baseline.
    """
    tracer = tracer if tracer is not None else get_tracer()
    report = CalibrationReport(dataset=bundle.name, workload=workload.name,
                               repeat=repeat, warmup=warmup)
    with tracer.span("calibrate", dataset=bundle.name,
                     workload=workload.name):
        points = [logical_only_design(bundle.tree, workload, bundle.stats)]
        for label in algorithms:
            result = design_for(label, bundle.tree, workload, bundle.stats,
                                bundle.storage_bound, tracer)
            points.append(DesignPoint(
                label=label, schema=result.schema,
                configuration=result.configuration,
                sql_queries=result.sql_queries,
                estimated_cost=result.estimated_cost))
        for point in points:
            fill_query_estimates(point, bundle.stats)
            with loaded_backend("sqlite", point.schema, point.configuration,
                                bundle.docs, tracer) as backend:
                for query, (sql, _) in zip(point.queries,
                                           point.sql_queries):
                    timing = backend.time_query(sql, repeat=repeat,
                                                warmup=warmup)
                    query.measured_seconds = timing.seconds
                    query.rows = timing.rows
            point.measured_seconds = sum(q.weight * q.measured_seconds
                                         for q in point.queries)
        report.designs = points
    return report
