"""Experiment harness: design realization and measurement.

(:class:`~repro.datasets.DatasetBundle`, the input carrier, lives in
``repro.datasets`` and is re-exported from ``repro.experiments``.)

The quality measure follows the paper (Section 5.1.4): workload
execution cost on the *loaded* relational database with the recommended
indexes and materialized views built, normalized to the hybrid-inlining
mapping with its own recommended physical design.
"""

from __future__ import annotations

import math

from ..datasets import DatasetBundle
from ..engine import Database
from ..mapping import MappedSchema, load_documents
from ..physdesign import Configuration, materialize
from ..search import DesignResult, design_for
from ..sqlast import Query
from ..workload import Workload


def realize(schema: MappedSchema, configuration: Configuration,
            docs) -> Database:
    """Load documents under the mapping and build the physical design."""
    db = Database(name="realized")
    load_documents(db, schema, docs)
    materialize(db, configuration)
    return db


def measure_workload(db: Database,
                     sql_queries: list[tuple[Query, float]]) -> float:
    """Weighted executed cost of the workload (deterministic)."""
    total = 0.0
    for sql, weight in sql_queries:
        total += weight * db.execute(sql).cost
    return total


def measure_design(result: DesignResult, bundle: DatasetBundle,
                   backend: str = "engine") -> float:
    """Realize a design on real data and measure the workload.

    ``backend="engine"`` (default) reports deterministic cost units;
    ``backend="sqlite"`` reports measured wall-clock seconds (weighted
    sum of :func:`repro.backends.time_on_sqlite` — not deterministic).
    """
    if backend == "sqlite":
        from ..backends import time_on_sqlite
        timings = time_on_sqlite(result.schema, result.configuration,
                                 result.sql_queries, bundle.docs)
        return sum(weight * timing.seconds for (_, weight), timing
                   in zip(result.sql_queries, timings))
    if backend != "engine":
        raise ValueError(f"unknown backend {backend!r}")
    db = realize(result.schema, result.configuration, bundle.docs)
    return measure_workload(db, result.sql_queries)


def tuned_hybrid_baseline(bundle: DatasetBundle, workload: Workload,
                          backend: str = "engine") -> float:
    """Measured cost of hybrid inlining under its own recommended
    physical design — what Figs. 4 and 7-9 normalize to."""
    design = design_for("hybrid", bundle.tree, workload, bundle.stats,
                        bundle.storage_bound)
    assert math.isfinite(design.estimated_cost), \
        "hybrid baseline must be feasible"
    return measure_design(design, bundle, backend)
