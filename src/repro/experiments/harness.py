"""Experiment harness: data bundles, design realization, measurement.

The quality measure follows the paper (Section 5.1.4): workload
execution cost on the *loaded* relational database with the recommended
indexes and materialized views built, normalized to the hybrid-inlining
mapping with its own recommended physical design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datasets import DATASETS, named_dataset
from ..engine import Database
from ..mapping import (CollectedStats, MappedSchema, Mapping,
                       collect_statistics, derive_schema, hybrid_inlining,
                       load_documents)
from ..physdesign import Configuration, IndexTuningAdvisor, materialize
from ..search import DesignResult, MappingEvaluator
from ..sqlast import Query
from ..workload import Workload, WorkloadGenerator
from ..xmlkit import Document
from ..xsd import SchemaTree

DEFAULT_STORAGE_BOUND = 512 * 1024 * 1024


@dataclass
class DatasetBundle:
    """A schema, its documents, and pre-collected statistics."""

    name: str
    tree: SchemaTree
    docs: Document
    stats: CollectedStats
    storage_bound: int = DEFAULT_STORAGE_BOUND

    @classmethod
    def named(cls, name: str, scale: int = 1500, seed: int = 7,
              storage_bound: int = DEFAULT_STORAGE_BOUND,
              stream: bool = False) -> "DatasetBundle":
        """The bundled dataset ``name`` (``"dblp"`` or ``"movie"``)."""
        tree, docs = named_dataset(name, scale, seed, stream)
        return cls(DATASETS[name][0], tree, docs,
                   collect_statistics(tree, docs), storage_bound)

    @classmethod
    def dblp(cls, **kwargs) -> "DatasetBundle":
        return cls.named("dblp", **kwargs)

    @classmethod
    def movie(cls, **kwargs) -> "DatasetBundle":
        return cls.named("movie", **kwargs)

    def workload_generator(self, seed: int = 0) -> WorkloadGenerator:
        return WorkloadGenerator(self.tree, self.stats, seed=seed)


# Loaded databases are cached per (document set, relational schema):
# measuring several configurations of the same mapping only re-shreds
# once. The cache strips any previously materialized physical design
# before handing the database back.
_REALIZE_CACHE: dict[tuple, Database] = {}


def realize(schema: MappedSchema, configuration: Configuration,
            docs: Document, use_cache: bool = True) -> Database:
    """Load documents under the mapping and build the physical design."""
    key = (id(docs), schema.signature())
    db = _REALIZE_CACHE.get(key) if use_cache else None
    if db is None:
        db = Database(name="realized")
        load_documents(db, schema, docs)
        if use_cache:
            _REALIZE_CACHE[key] = db
    else:
        for view in list(db.catalog.views()):
            db.catalog.drop_table(view.name)
        for name in [n for n in db.catalog.indexes
                     if not n.startswith("pk_")]:
            db.catalog.drop_index(name)
    materialize(db, configuration)
    return db


def clear_realize_cache() -> None:
    """Drop cached loaded databases (tests and memory-sensitive runs)."""
    _REALIZE_CACHE.clear()


def measure_workload(db: Database,
                     sql_queries: list[tuple[Query, float]]) -> float:
    """Weighted executed cost of the workload (deterministic)."""
    total = 0.0
    for sql, weight in sql_queries:
        total += weight * db.execute(sql).cost
    return total


def measure_workload_sqlite(schema: MappedSchema,
                            configuration: Configuration,
                            sql_queries: list[tuple[Query, float]],
                            docs: Document, repeat: int = 3,
                            warmup: int = 1) -> float:
    """Weighted measured wall-clock seconds of the workload on SQLite.

    A fresh in-memory SQLite database per call: bulk-load, build the
    physical design for real, then time every query with warmup and
    repetition (median run). Unlike :func:`measure_workload` this is
    *not* deterministic — it is the real-DBMS ground truth the engine's
    cost units are calibrated against (``repro calibrate``).
    """
    from ..backends import SQLiteBackend
    with SQLiteBackend() as backend:
        backend.load(schema, docs)
        backend.apply_configuration(configuration)
        return sum(
            weight * backend.time_query(query, repeat=repeat,
                                        warmup=warmup).seconds
            for query, weight in sql_queries)


def measure_design(result: DesignResult, bundle: DatasetBundle,
                   backend: str = "engine") -> float:
    """Realize a search result on real data and measure the workload.

    ``backend="engine"`` (default) reports deterministic cost units;
    ``backend="sqlite"`` reports measured wall-clock seconds.
    """
    if backend == "sqlite":
        return measure_workload_sqlite(result.schema, result.configuration,
                                       result.sql_queries, bundle.docs)
    if backend != "engine":
        raise ValueError(f"unknown backend {backend!r}")
    db = realize(result.schema, result.configuration, bundle.docs)
    return measure_workload(db, result.sql_queries)


@dataclass
class Baseline:
    """The hybrid-inlining + tuned-physical-design normalizer."""

    schema: MappedSchema
    configuration: Configuration
    sql_queries: list[tuple[Query, float]]
    estimated_cost: float
    measured_cost: float


def tuned_hybrid_baseline(bundle: DatasetBundle, workload: Workload,
                          backend: str = "engine") -> Baseline:
    """Hybrid inlining with its own recommended physical design."""
    mapping = hybrid_inlining(bundle.tree)
    evaluator = MappingEvaluator(workload, bundle.stats,
                                 bundle.storage_bound)
    evaluated = evaluator.evaluate(mapping)
    assert evaluated is not None, "hybrid baseline must be feasible"
    if backend == "sqlite":
        measured = measure_workload_sqlite(
            evaluated.schema, evaluated.tuning.configuration,
            evaluated.sql_queries, bundle.docs)
    else:
        db = realize(evaluated.schema, evaluated.tuning.configuration,
                     bundle.docs)
        measured = measure_workload(db, evaluated.sql_queries)
    return Baseline(
        schema=evaluated.schema,
        configuration=evaluated.tuning.configuration,
        sql_queries=evaluated.sql_queries,
        estimated_cost=evaluated.total_cost,
        measured_cost=measured,
    )
