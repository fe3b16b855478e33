"""Data-plane scaling: shred, bulk-load, and query throughput vs N.

The other benchmarks measure the advisor and the serving layer at a
fixed, small data size. This one measures the *data plane* as the
document grows: for each publication count N it streams a lazy
synthetic DBLP document through the shredder (``shred_typed_batches``),
bulk-loads the same stream into a file-backed SQLite database
(chunked ``executemany`` inside sized transactions, WAL journaling),
and times a translated XPath selection against the loaded database.
Throughput (rows/s) and peak RSS go to ``BENCH_scale.json`` so the
scaling trajectory is tracked across PRs.

A lazy document is generated *while* it is consumed, so a timer around
the shredder also times the generator. Each N therefore drains the
generator once on its own (``generate_s``), and ``shred`` reports the
streaming pass net of that; ``load`` stays gross (generation, shredding
and inserts) with ``net_seconds`` beside it.

The full run covers N = 10^4, 10^5, 10^6. The ``--smoke`` variant used
by CI runs one small N with a small batch size and asserts that peak
RSS growth stays bounded — the regression guard for the streaming
path's bounded-memory contract (docs/scaling.md).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scale.py          # full
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke  # CI
"""

import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from repro.backends import SQLiteBackend
from repro.datasets import dblp_schema, generate_dblp
from repro.mapping import derive_schema, hybrid_inlining, shred_typed_batches
from repro.translate import Translator
from repro.xpath import parse_xpath

SEED = 7
FULL_NS = (10_000, 100_000, 1_000_000)
SMOKE_N = 30_000
SMOKE_BATCH = 2_000
# Peak RSS ceiling for the smoke run. The whole point of the streaming
# path is that memory scales with batch size, not N; 30k publications
# eagerly materialized plus eager shredded rows would blow well past
# this, while the streaming path stays near the interpreter baseline.
SMOKE_RSS_LIMIT_MB = 120.0
QUERY = '//inproceedings[booktitle = "VLDB"]/title'
QUERY_REPEATS = 5
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"


def _peak_rss_mb() -> float:
    """Process-lifetime peak RSS in MB (ru_maxrss is KB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # reported in bytes there
        peak /= 1024
    return peak / 1024


def _measure(n: int, batch_size: int, db_dir: Path) -> dict:
    """Shred, load, and query one lazy DBLP document of N publications."""
    schema = derive_schema(hybrid_inlining(dblp_schema()))

    t0 = perf_counter()
    for _publication in generate_dblp(n, seed=SEED, stream=True).root:
        pass
    generate_s = perf_counter() - t0

    t0 = perf_counter()
    shredded_rows = 0
    for _name, batch in shred_typed_batches(
            schema, generate_dblp(n, seed=SEED, stream=True), batch_size):
        shredded_rows += len(batch)
    shred_s = perf_counter() - t0 - generate_s

    db_path = db_dir / f"scale_{n}.db"
    backend = SQLiteBackend(str(db_path))
    t0 = perf_counter()
    backend.load(schema, generate_dblp(n, seed=SEED, stream=True),
                 batch_size=batch_size)
    load_s = perf_counter() - t0
    loaded_rows = sum(backend.row_counts.values())

    query = Translator(schema).translate(parse_xpath(QUERY))
    t0 = perf_counter()
    for _ in range(QUERY_REPEATS):
        hits = len(backend.execute(query))
    query_s = (perf_counter() - t0) / QUERY_REPEATS
    backend.close()

    return {
        "n_publications": n,
        "batch_size": batch_size,
        "rows": loaded_rows,
        "generate_s": round(generate_s, 3),
        "shred": {"seconds": round(shred_s, 3),
                  "rows_per_s": round(shredded_rows / shred_s)},
        "load": {"seconds": round(load_s, 3),
                 "net_seconds": round(load_s - generate_s, 3),
                 "rows_per_s": round(loaded_rows / load_s),
                 "db_bytes": db_path.stat().st_size},
        "query": {"xpath": QUERY, "hits": hits,
                  "seconds": round(query_s, 4)},
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def _run(ns: tuple[int, ...], batch_size: int) -> dict:
    cells = []
    with tempfile.TemporaryDirectory(prefix="bench_scale_") as tmp:
        for n in ns:
            cell = _measure(n, batch_size, Path(tmp))
            cells.append(cell)
            print(f"N={n:>9,}: generate {cell['generate_s']:.2f}s, "
                  f"shred {cell['shred']['rows_per_s']:>7,} "
                  f"rows/s, load {cell['load']['rows_per_s']:>7,} rows/s, "
                  f"query {cell['query']['seconds'] * 1e3:.1f}ms "
                  f"({cell['query']['hits']} hits), "
                  f"peak RSS {cell['peak_rss_mb']:.0f}MB")
    return {"benchmark": "scale", "seed": SEED, "dataset": "dblp",
            "results": cells}


def _assert_sane(payload: dict) -> None:
    for cell in payload["results"]:
        assert cell["generate_s"] > 0
        assert cell["shred"]["seconds"] > 0, (
            "the streaming shred pass took no longer than generation alone")
        assert cell["shred"]["rows_per_s"] > 0
        # Shredding and loading the same stream must agree on row count.
        assert cell["rows"] > cell["n_publications"]
        assert cell["query"]["hits"] > 0, "VLDB selection found no rows"


def test_scale_throughput(benchmark, emit):
    payload = benchmark.pedantic(
        lambda: _run((SMOKE_N,), SMOKE_BATCH), rounds=1, iterations=1)
    _assert_sane(payload)
    emit(json.dumps(payload["results"], indent=2))


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    payload = _run((SMOKE_N,) if smoke else FULL_NS,
                   SMOKE_BATCH if smoke else 10_000)
    _assert_sane(payload)
    if smoke:
        peak = payload["results"][-1]["peak_rss_mb"]
        assert peak < SMOKE_RSS_LIMIT_MB, (
            f"peak RSS {peak:.0f}MB exceeds the {SMOKE_RSS_LIMIT_MB:.0f}MB "
            f"streaming bound — the data plane is buffering more than its "
            f"batch size somewhere")
        print(f"peak RSS {peak:.0f}MB within the "
              f"{SMOKE_RSS_LIMIT_MB:.0f}MB bound")
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
    print(f"wrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
