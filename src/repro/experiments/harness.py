"""Experiment harness: design measurement.

(:class:`~repro.datasets.DatasetBundle`, the input carrier, lives in
``repro.datasets`` and is re-exported from ``repro.experiments``.)

The quality measure follows the paper (Section 5.1.4): workload
execution cost on the *loaded* relational database with the recommended
indexes and materialized views built, normalized to the hybrid-inlining
mapping with its own recommended physical design.
"""

from __future__ import annotations

import math

from ..backends import SQLBackend, loaded_backend
from ..datasets import DatasetBundle
from ..search import DesignResult, design_for
from ..sqlast import Query
from ..workload import Workload


def workload_cost(backend: SQLBackend,
                  sql_queries: list[tuple[Query, float]]) -> float:
    """Weighted sum of ``time_query`` over a loaded backend: the
    deterministic executed cost on the engine, the median of three
    timed runs after one warm-up (seconds) on a DBMS."""
    return sum(weight * backend.time_query(query).seconds
               for query, weight in sql_queries)


def measure_design(result: DesignResult, bundle: DatasetBundle,
                   backend: str = "engine") -> float:
    """Load a design on real data, build its structures, and measure
    the workload on ``backend`` (see :func:`workload_cost`)."""
    with loaded_backend(backend, result.schema, result.configuration,
                        bundle.docs) as loaded:
        return workload_cost(loaded, result.sql_queries)


def tuned_hybrid_baseline(bundle: DatasetBundle, workload: Workload,
                          backend: str = "engine") -> float:
    """Measured cost of hybrid inlining under its own recommended
    physical design — what Figs. 4 and 7-9 normalize to."""
    design = design_for("hybrid", bundle.tree, workload, bundle.stats,
                        bundle.storage_bound)
    assert math.isfinite(design.estimated_cost), \
        "hybrid baseline must be feasible"
    return measure_design(design, bundle, backend)
