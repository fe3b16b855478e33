"""Backend matrix — load and query timings per executor, plus the
cross-backend comparator verdict.

For each bundled dataset the hybrid-inlined design is built once, then
every available backend (the in-memory engine, SQLite, and DuckDB when
the optional driver is installed) loads the same shredded documents,
applies the same physical configuration, and times the same translated
workload. The cell records bulk-load seconds, total/median query
timings (wall-clock for the real engines; the in-memory engine's
``time_query`` reports deterministic model-cost units, flagged by the
cell's ``unit`` field), and — for each real-DBMS pair — the comparator
status, so a
renderer or executor drift shows up next to the perf numbers it would
otherwise hide behind. Results go to ``BENCH_matrix.json``.

Run standalone with ``--smoke`` for the quick CI variant::

    PYTHONPATH=src python benchmarks/bench_backend_matrix.py --smoke
"""

import json
import statistics
import sys
import time
from pathlib import Path

from repro.backends import (backend_factory, compare_loaded,
                            duckdb_available)
from repro.datasets import DATASETS, DatasetBundle
from repro.mapping import derive_schema, hybrid_inlining
from repro.physdesign import Configuration
from repro.search import translate_workload

SEED = 7
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_matrix.json"


def _available_backends() -> list[str]:
    names = ["engine", "sqlite"]
    if duckdb_available():
        names.append("duckdb")
    return names


def _design(dataset: str, scale: int, queries: int):
    bundle = DatasetBundle.named(dataset, scale, SEED)
    schema = derive_schema(hybrid_inlining(bundle.tree))
    workload = bundle.workload_generator(seed=3).generate(queries)
    translated = [query for query, _ in translate_workload(workload, schema)]
    return schema, bundle.docs, translated


def _measure_cell(name: str, schema, docs, queries) -> tuple[dict, object]:
    backend = backend_factory(name)()
    start = time.perf_counter()
    backend.load(schema, docs)
    load_seconds = time.perf_counter() - start
    backend.apply_configuration(Configuration())
    per_query = [backend.time_query(q, repeat=3, warmup=1).seconds
                 for q in queries]
    cell = {
        "backend": name,
        # EngineBackend.time_query reports deterministic model cost,
        # not wall-clock; keep the two regimes distinguishable.
        "unit": "model-cost" if name == "engine" else "seconds",
        "load_seconds": round(load_seconds, 4),
        "query_total": round(sum(per_query), 6),
        "query_median": round(statistics.median(per_query), 6),
        "queries": len(per_query),
    }
    return cell, backend


def _run(scale: int, queries: int) -> dict:
    results = []
    for dataset in DATASETS:
        schema, docs, translated = _design(dataset, scale, queries)
        backends = {}
        try:
            for name in _available_backends():
                cell, backend = _measure_cell(name, schema, docs,
                                              translated)
                backends[name] = backend
                results.append({"dataset": dataset, **cell})
                print(f"{dataset:>6} {name:>7}: load "
                      f"{cell['load_seconds']:.3f}s, median query "
                      f"{cell['query_median']:.6g} {cell['unit']}")
            if "duckdb" in backends:
                report = compare_loaded(backends["sqlite"],
                                        backends["duckdb"], translated,
                                        schema=schema,
                                        context={"dataset": dataset})
                results.append({"dataset": dataset,
                                "comparator": "sqlite-vs-duckdb",
                                "status": report.status})
                print(f"{dataset:>6} comparator sqlite vs duckdb: "
                      f"{report.status}")
        finally:
            for backend in backends.values():
                backend.close()
    return {"benchmark": "backend_matrix", "seed": SEED, "scale": scale,
            "backends": _available_backends(), "results": results}


def _assert_sane(payload: dict) -> None:
    for cell in payload["results"]:
        if "comparator" in cell:
            assert cell["status"] == "OK", cell
        else:
            assert cell["query_median"] >= 0, cell


def test_backend_matrix(benchmark, emit):
    payload = benchmark.pedantic(lambda: _run(scale=400, queries=8),
                                 rounds=1, iterations=1)
    _assert_sane(payload)
    emit(json.dumps(payload["results"], indent=2))


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    payload = _run(scale=150 if smoke else 400,
                   queries=6 if smoke else 8)
    _assert_sane(payload)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
    print(f"wrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
