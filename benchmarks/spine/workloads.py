"""The five workloads, from an XML file to a served answer.

The untraced pass of a workload runs its set-up, checks every answer
against the DOM oracle, and then repeats only the phase the workload is
named after for ``--seconds``. The traced pass runs the *whole* pipeline
on the workload's own document and queries — file, parse, validate,
statistics, design, shred, load, serve — with one span per layer, so
every layer reports a measured number on every workload.

Every call into ``repro`` here is to a public function; nothing under
``src/`` is patched except the two instance-level shims of
``spans.ServeTrace`` during traced slices.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.backends import SQLiteBackend, render_query
from repro.datasets import (dblp_schema, generate_dblp, generate_movies,
                            movie_schema)
from repro.engine import Index
from repro.mapping import (collect_statistics, derive_schema,
                           hybrid_inlining, shred_typed_batches)
from repro.physdesign import Configuration, IndexTuningAdvisor
from repro.search import GreedySearch, build_stats_only_database
from repro.serve import QueryService
from repro.translate import Translator
from repro.workload import Workload, WorkloadGenerator
from repro.xmlkit import count_elements, parse_file, serialize
from repro.xpath import evaluate, evaluate_values, parse_xpath
from repro.xsd import validate

from loadgen import (Passes, Schedule, closed_slice, contended_slice, open_arm,
                     percentile, sequence_digest, summarize_closed,
                     supported_tail, zipf_weights)
from metrics import BY_NAME
from spans import Recorder, ServeTrace

FULL = dict(ingest_pubs=5_000, advise_scale=5_000, advise_queries=10,
            point_pubs=5_000, hot=64, cold=2_048, scan_pubs=20_000,
            scan_queries=10, slice_s=1.0, sequential_reps=15,
            setup_reps=7, census_reps=5)
SMOKE = dict(ingest_pubs=400, advise_scale=250, advise_queries=2,
             point_pubs=400, hot=16, cold=256, scan_pubs=800,
             scan_queries=4, slice_s=0.25, sequential_reps=3,
             setup_reps=1, census_reps=1)

#: Queries per workload checked with ``evaluate_values`` itself; the
#: rest of a larger set (serve_coldplan) is checked against one
#: predicate-free ``evaluate`` pass over the same DOM — 2 048 full
#: evaluations at ~19 ms each would cost more than the run.
EXACT_ORACLE = 64
#: Queries handed to the direct-call layer census.
CENSUS_QUERIES = 8
LOAD_BATCH = 10_000
WORKERS = 2
#: ``--seed`` seeds the documents (so the statistics, the predicate
#: constants and the titles asked for) and the request schedule. The
#: *shapes* of generated workload queries come from this fixed seed:
#: with the generator seeded per run, the summed search time of
#: ``advise`` swung 0.41-1.08 searches/s across ten seeds, which would
#: bury any change to the search under the choice of seed.
SHAPE_SEED = 7
#: ``serve_scan`` generates its documents from this seed too, and
#: ``--seed`` draws only its request sequence: another data seed makes
#: the generator pick other constants (321-1 242 rows per answer) and
#: the search find another design, which moved qps by 0.24 and p50 by
#: 0.29 (IQR / median over ten seeds) - more than any change the
#: workload is there to show.
SCAN_DATA_SEED = 7

INGEST_CONFIGURATION = Configuration(indexes=[
    Index("spine_ix_booktitle", "inproc", ("booktitle",),
          ("title", "year")),
    Index("spine_ix_author_pid", "author", ("PID",), ("author",)),
    Index("spine_ix_book_year", "book", ("year",), ("title",)),
])
INGEST_QUERIES = (
    '/dblp/inproceedings[booktitle = "VLDB"]/(title | year)',
    '/dblp/inproceedings[booktitle = "ICDE"]/author',
    '/dblp/book[year >= "2000"]/title',
    '/dblp/inproceedings[year = "1999"]/(title | author)',
)
POINT_CONFIGURATION = Configuration(indexes=[
    Index("spine_ix_title", "inproc", ("title",), ("year",)),
])


# ----------------------------------------------------------------------
# One run's bookkeeping
# ----------------------------------------------------------------------
#: Seconds :func:`kernel` takes on this sandbox when its neighbours are
#: quiet; machine speed 1.0.
REFERENCE_KERNEL_S = 0.007


def kernel() -> float:
    """Time a fixed piece of interpreter work that calls nothing of the
    program: dict updates, tuple building, a sort, string joins."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(8000):
        key = f"k{i % 97}"
        counts[key] = counts.get(key, 0) + i
    rows = [(i * 7919 % 1009, str(i), (i, i + 1)) for i in range(8000)]
    rows.sort()
    parts = ",".join(row[1] for row in rows).split(",")
    if sum(len(part) for part in parts) != 30890 or len(counts) != 97:
        raise AssertionError("the reference kernel changed its work")
    return time.perf_counter() - start


def pin(cpus) -> None:
    """Restrict every thread of this process to ``cpus``.

    Pinned to one CPU is how everything gated runs: on this 2-vCPU VM
    the scheduler sometimes puts a pool worker on the other vCPU, and
    each caller/worker hand-off then waits for a cross-CPU wake-up —
    alternating 1 s slices of the same closed c=1 loop read 2.3k QPS
    unpinned and 6.8k pinned (README, "Noise").
    """
    if hasattr(os, "sched_setaffinity"):
        for thread in threading.enumerate():
            os.sched_setaffinity(thread.native_id, cpus)


class Run:
    """Samples, spans and the attempted/failed tally of one child run."""

    def __init__(self, seed: int, seconds: float, traced: bool, smoke: bool,
                 tmp: Path):
        #: The CPUs the process was given; it runs pinned to the first
        #: of them except inside :func:`unpinned`.
        self.cpus = (os.sched_getaffinity(0)
                     if hasattr(os, "sched_getaffinity") else {0})
        pin({min(self.cpus)})
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.size = SMOKE if smoke else FULL
        self.tmp = tmp
        self.recorder = Recorder()
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, tuple[float, int]] = {}
        self.sizes: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Reference-kernel times taken in between the work, by phase.
        self.phase = "setup"
        self.ticks: dict[str, list[float]] = {"setup": [], "measured": []}

    @contextmanager
    def timed(self, name: str, scale: float = 1.0):
        """Time the block into sample list ``name`` (and one span)."""
        with self.recorder.span(name) as span:
            yield
        self.samples.setdefault(name, []).append(span["seconds"] * scale)

    def tick(self, n: int = 6) -> None:
        """Sample the machine's speed now (``n`` kernel runs, ~7 ms each)."""
        self.ticks[self.phase] += [kernel() for _ in range(n)]

    def speed(self, phase: str) -> float:
        """Machine speed over a phase: 1.0 is the quiet sandbox, 0.5 a
        machine that takes twice as long over the same work."""
        return REFERENCE_KERNEL_S / statistics.median(self.ticks[phase])

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.values[name] = (value, n)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    @contextmanager
    def unpinned(self):
        """Contended and open-loop arms get every CPU: whether threads
        overlap is what they measure."""
        pin(self.cpus)
        try:
            yield
        finally:
            pin({min(self.cpus)})

    def metrics(self) -> dict[str, tuple[float, int]]:
        """Explicit values, plus the median of every sample list.

        End-to-end times and rates are scaled to reference machine
        speed: this sandbox's speed drifts by tens of per cent over
        minutes, and the reference kernel run in between the work drifts
        with it (README, "Noise"). Per-layer metrics stay as measured;
        they are read as shares of one run.
        """
        out = {name: (statistics.median(values), len(values))
               for name, values in self.samples.items()}
        out.update(self.values)
        if not self.traced:
            for name in out.keys() & BY_NAME.keys():
                power = BY_NAME[name].speed_power
                if power:
                    speed = self.speed("setup" if name == "setup_s"
                                       else "measured")
                    out[name] = (out[name][0] * speed ** power, out[name][1])
        out["bench.machine_speed"] = (self.speed("measured"),
                                      len(self.ticks["measured"]))
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        out["failed_share"] = (self.failed / max(self.attempted, 1),
                               self.attempted)
        return out


@dataclass
class Data:
    """One generated document and where it was written."""

    dataset: str
    tree: object
    doc: object
    path: Path
    xml_bytes: int


@dataclass
class Query:
    xpath: str
    #: Expected sorted values when the cheap oracle supplied them;
    #: ``None`` means "ask ``evaluate_values``".
    want: list[str] | None = None


def make_document(run: Run, dataset: str, n: int, seed=None) -> Data:
    schema, generate = {"dblp": (dblp_schema, generate_dblp),
                        "movie": (movie_schema, generate_movies)}[dataset]
    tree = schema()
    with run.timed("bench.datasets_generate_s"):
        doc = generate(n, seed=run.seed if seed is None else seed)
    path = run.tmp / f"{dataset}.xml"
    with run.timed("bench.serialize_s"):
        path.write_text(serialize(doc), encoding="utf-8")
    return Data(dataset, tree, doc, path, path.stat().st_size)


def repeat_setup(run: Run, build, dispose=lambda state: None, reps=None):
    """Run ``build`` ``setup_reps`` times under ``setup_s``; keep the
    last state, dispose of the others."""
    state = None
    run.tick()
    for _ in range(reps or run.size["setup_reps"]):
        if state is not None:
            dispose(state)
        with run.timed("setup_s"):
            state = build()
        run.tick()
    run.phase = "measured"
    run.tick()
    return state


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def result_values(rows) -> list[str]:
    """Sorted non-null projection values of a sorted-outer-union result
    (the ``tests/test_equivalence.py`` rule)."""
    return sorted(str(value) for row in rows for value in row[1:]
                  if value is not None)


def verify(run: Run, answer, queries: list[Query], doc) -> list:
    """Check each distinct query once; return the rows to expect."""
    expected = []
    with run.timed("bench.oracle_s"):
        for query in queries:
            want = query.want
            if want is None:
                want = sorted(evaluate_values(parse_xpath(query.xpath), doc))
            try:
                rows = answer(query.xpath)
            except Exception as exc:    # a refusal is a failed operation
                rows = None
                run.check(False, f"{query.xpath}: {exc!r}")
            else:
                run.check(result_values(rows) == want,
                          f"oracle mismatch: {query.xpath}")
            expected.append(rows)
    return expected


def point_queries(run: Run, data: Data, count: int) -> list[Query]:
    """``count`` title-equality queries, one result record each."""
    grouped = evaluate(parse_xpath("/dblp/inproceedings/(title | year)"),
                       data.doc)
    years: dict[str, list[str]] = {}
    for title, year in zip(grouped[0::2], grouped[1::2]):
        years.setdefault(title.string_value(), []).append(
            year.string_value())
    titles = random.Random(run.seed).sample(sorted(years), count)
    return [Query(f'/dblp/inproceedings[title = "{title}"]/year',
                  None if i < EXACT_ORACLE else sorted(years[title]))
            for i, title in enumerate(titles)]


# ----------------------------------------------------------------------
# Offline stages
# ----------------------------------------------------------------------
def database_bytes(backend) -> int:
    pages = backend.execute_sql("PRAGMA page_count")[0][0]
    return pages * backend.execute_sql("PRAGMA page_size")[0][0]


def ingest_once(run: Run, data: Data, db_path: str, mapping_of,
                configuration: Configuration):
    """File on disk -> indexed, queryable database, one span a stage."""
    with run.timed("ingest"):
        with run.timed("xmlkit.parse_s"):
            doc = parse_file(str(data.path))
        with run.timed("xsd.validate_s"):
            validate(doc, data.tree)
        with run.timed("mapping.stats_s"):
            stats = collect_statistics(data.tree, doc)
        with run.timed("mapping.derive_schema_s"):
            schema = derive_schema(mapping_of(data.tree))
        backend = SQLiteBackend(db_path)
        try:
            with run.timed("backends.load_s"):
                backend.load(schema, doc, batch_size=LOAD_BATCH)
            with run.timed("backends.apply_configuration_s"):
                backend.apply_configuration(configuration)
        except BaseException:
            backend.close()
            raise
    return doc, stats, schema, backend


def shred_only(run: Run, schema, doc) -> dict[str, int]:
    """The separately timed shred pass: no generation, no inserts."""
    counts: dict[str, int] = {}
    with run.timed("mapping.shred_s"):
        for table, rows in shred_typed_batches(schema, doc, LOAD_BATCH):
            counts[table] = counts.get(table, 0) + len(rows)
    return counts


def offline_metrics(run: Run, data: Data, doc, backend,
                    shredded: dict[str, int]) -> None:
    rows = sum(shredded.values())
    run.check(dict(backend.row_counts) == shredded,
              "loaded row counts differ from the shred-only pass")
    parse_s = statistics.median(run.samples["xmlkit.parse_s"])
    shred_s = statistics.median(run.samples["mapping.shred_s"])
    load_s = statistics.median(run.samples["backends.load_s"])
    size = database_bytes(backend)
    run.put("xmlkit.parse_mb_per_s", data.xml_bytes / 1e6 / parse_s)
    run.put("xmlkit.elements", count_elements([doc.root]))
    run.put("mapping.rows", rows)
    run.put("mapping.shred_rows_per_s", rows / shred_s)
    run.put("backends.insert_s", load_s - shred_s)
    run.put("backends.db_bytes", size)
    run.put("backends.storage_amplification", size / data.xml_bytes)
    run.sizes.update(xml_bytes=data.xml_bytes, rows=rows, db_bytes=size)


# ----------------------------------------------------------------------
# Direct-call census (traced pass)
# ----------------------------------------------------------------------
def query_census(run: Run, tree, schema, stats, xpaths) -> None:
    """Per distinct query: parse, translate, render, what-if estimate;
    plus one direct tuning-advisor call on hybrid inlining."""
    translator = Translator(schema)
    what_if = build_stats_only_database(schema, stats)
    for _ in range(run.size["census_reps"]):
        for xpath in xpaths:
            with run.timed("xpath.parse_us", 1e6):
                query = parse_xpath(xpath)
            with run.timed("translate.translate_us", 1e6):
                sql = translator.translate(query)
            with run.timed("sqlast.render_us", 1e6):
                render_query(sql)
            with run.timed("engine.estimate_us", 1e6):
                what_if.estimate(sql)
    hybrid = derive_schema(hybrid_inlining(tree))
    translator = Translator(hybrid)
    workload = [(translator.translate(xpath), 1.0) for xpath in xpaths]
    advisor = IndexTuningAdvisor(build_stats_only_database(hybrid, stats))
    with run.timed("physdesign.advise_s"):
        advisor.tune(workload)


def search_metrics(run: Run, results) -> None:
    """Counters of the searches run (``search.greedy_s`` is timed where
    they ran)."""
    run.put("search.est_cost", sum(r.estimated_cost for r in results))
    run.put("search.rounds", sum(r.rounds for r in results))
    for name, field in (("search.mappings_evaluated", "mappings_evaluated"),
                        ("search.transformations_searched",
                         "transformations_searched"),
                        ("search.cache_hits", "cache_hits"),
                        ("search.derived_query_costs",
                         "derived_query_costs"),
                        ("physdesign.tuner_calls", "tuner_calls"),
                        ("engine.optimizer_calls", "optimizer_calls")):
        run.put(name, sum(getattr(r.counters, field) for r in results))


def greedy(tree, workload, stats):
    return GreedySearch(tree, workload, stats, jobs=1, cache=None).run()


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def start_service(run: Run, schema, doc, configuration) -> QueryService:
    with run.timed("serve.startup_s"):
        return QueryService(schema, doc, configuration, workers=WORKERS)


def gated_arm(run: Run, service, xpaths, expected, make_schedule,
              seconds: float, per_op: int = 1) -> None:
    """Closed loop, one client: the end-to-end serving numbers.

    ``per_op`` requests make one gated operation: 1, or on
    ``serve_scan`` one pass over the workload's queries.
    """
    slice_s = run.size["slice_s"]
    schedule = make_schedule()
    slices = []
    for _ in range(max(2, int(seconds / slice_s))):
        slices.append(closed_slice(service, xpaths, expected, schedule,
                                   slice_s))
        run.tick()
    summary = summarize_closed(slices)
    run.attempted += summary.requests + summary.failed
    run.failed += summary.failed
    n = summary.slices
    run.put("qps", summary.qps, n)
    run.put("p95_ms", summary.p95_ms, n)
    run.put("cpu_us_per_req", summary.cpu_us_per_req, summary.requests)
    run.put("ops_per_s", summary.qps / per_op, n)
    run.put("cpu_us_per_op", summary.cpu_us_per_req * per_op,
            summary.requests // per_op)
    if per_op == 1:
        run.put("p50_ms", summary.p50_ms, n)
    else:
        # Request latencies in served order; the schedule is continuous
        # across slices, so every per_op of them are one pass.
        served = [x for s in slices for x in s.latencies]
        passes = [sum(served[i:i + per_op])
                  for i in range(0, len(served) - per_op + 1, per_op)]
        run.put("p50_ms", 1e3 * statistics.median(passes), len(passes))
    run.sizes.update(
        slices=n, requests=summary.requests,
        min_slice_requests=summary.min_slice_requests,
        slices_outlier=summary.outliers,
        tail_supported=supported_tail(summary.min_slice_requests),
        sequence_digest=sequence_digest(make_schedule()))


def serve_arms(run: Run, service, xpaths, expected, weights, rates,
               seconds: float) -> None:
    """The traced pass's serving arms: closed c=1 with alternating
    untraced/traced slices, closed c=2, and the two open-loop rates."""
    slice_s = run.size["slice_s"]
    arm_s = 2 * slice_s         # the contended arm and each open-loop rate
    pairs = max(1, (int(seconds / slice_s) - 6) // 2)
    schedule = Schedule(weights, run.seed)
    before = service.plan_cache.stats()
    plain, traced = [], []
    tracer = ServeTrace(service, run.recorder)
    for _ in range(pairs):
        plain.append(closed_slice(service, xpaths, expected, schedule,
                                  slice_s))
        with tracer:
            traced.append(closed_slice(service, xpaths, expected, schedule,
                                       slice_s, tracer.on_request))
        run.tick()
    after = service.plan_cache.stats()
    base, shadow = summarize_closed(plain), summarize_closed(traced)
    run.put("serve.closed_qps", base.qps, pairs)
    run.put("serve.closed_p50_ms", base.p50_ms, pairs)
    run.put("serve.closed_p95_ms", base.p95_ms, pairs)
    run.put("bench.trace_overhead_share", 1.0 - shadow.qps / base.qps, pairs)
    run.put("bench.slices_outlier", base.outliers + shadow.outliers,
            2 * pairs)
    lookups = (after["hits"] - before["hits"]
               + after["misses"] - before["misses"])
    run.put("serve.plan_cache_hit_rate",
            (after["hits"] - before["hits"]) / lookups, int(lookups))
    run.put("serve.plan_cache_evictions",
            after["evictions"] - before["evictions"])

    totals = run.recorder.totals()
    n = tracer.requests
    request_s = totals["bench.request"]["total_s"]
    plan_s = totals["serve.plan"]["total_s"]
    execute_s = totals["backends.execute"]["total_s"]
    run.put("serve.admit_queue_us",
            1e6 * totals["serve.admit_queue"]["total_s"] / n, n)
    run.put("serve.plan_us", 1e6 * plan_s / n, n)
    run.put("backends.execute_us", 1e6 * execute_s / n, n)
    run.put("serve.return_us",
            1e6 * totals["serve.return"]["total_s"] / n, n)
    run.put("serve.overhead_us",
            1e6 * (request_s - plan_s - execute_s) / n, n)
    run.put("backends.rows_per_req", tracer.rows / n, n)
    run.put("bench.span_coverage",
            1.0 - totals["bench.request"]["self_s"] / request_s, n)
    run.sizes["execute_share_of_request"] = execute_s / request_s

    with run.unpinned():
        contended = contended_slice(service, xpaths, expected, weights,
                                    run.seed, arm_s)
        arms = [open_arm(service, xpaths, expected, schedule, rate, arm_s)
                for rate in rates]
    run.put("serve.contended_qps", contended.qps, len(contended.latencies))

    failed = base.failed + shadow.failed + contended.failed
    lateness: list[float] = []
    best = 0.0
    for label, arm in zip(("lo", "hi"), arms):
        rate = arm.rate
        n = len(arm.latencies)
        failed += arm.failed
        lateness += arm.late
        run.put(f"serve.open_{label}_rate", rate)
        for p in (50, 95, 99):
            run.put(f"serve.open_{label}_p{p}_ms", arm.p_ms(p), n)
        if arm.ok:
            best = max(best, rate)
        run.sizes[f"open_{label}"] = dict(
            requests=n, shed=arm.shed, backlog_half=arm.backlog_half,
            backlog_end=arm.backlog_end,
            tail_supported=supported_tail(n))
    run.put("serve.open_max_rate_ok", best)
    run.put("bench.loadgen_late_ms", 1e3 * percentile(lateness, 95),
            len(lateness))
    requests = (base.requests + shadow.requests + len(contended.latencies)
                + failed)
    run.attempted += requests
    run.failed += failed
    stats = service.stats()
    run.put("serve.errors", stats.errors)
    run.put("serve.shed", stats.shed)
    run.put("serve.retries", stats.retries)
    run.put("serve.timeouts", stats.timeouts)


def layer_census(run: Run, data: Data, stats, mapping, schema,
                 configuration, queries: list[Query], weights, rates,
                 seconds: float, *, ingested=None, searched: bool = False,
                 service=None, expected=None) -> None:
    """The rest of the pipeline, for the traced pass: whatever the
    workload's own phases did not already time, on its own inputs.
    ``ingested`` (a parsed document and its loaded backend) and
    ``service`` stay the caller's to close."""
    if ingested is None:
        doc, _, _, backend = ingest_once(run, data, ":memory:",
                                         lambda tree: mapping, configuration)
        try:
            offline_metrics(run, data, doc, backend,
                            shred_only(run, schema, doc))
        finally:
            backend.close()
    else:
        doc, backend = ingested
        offline_metrics(run, data, doc, backend, shred_only(run, schema, doc))
    xpaths = [q.xpath for q in queries]
    query_census(run, data.tree, schema, stats, xpaths[:CENSUS_QUERIES])
    if not searched:
        workload = Workload.from_strings("census", xpaths[:CENSUS_QUERIES])
        with run.timed("search.greedy_s"):
            result = greedy(data.tree, workload, stats)
        search_metrics(run, [result])
    if service is not None:
        serve_arms(run, service, xpaths, expected, weights, rates, seconds)
        return
    service = start_service(run, schema, doc, configuration)
    try:
        expected = verify(run, lambda x: service.serve(x).rows, queries, doc)
        serve_arms(run, service, xpaths, expected, weights, rates, seconds)
    finally:
        service.close()


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
def ingest(run: Run) -> None:
    data = repeat_setup(
        run, lambda: make_document(run, "dblp", run.size["ingest_pubs"]))
    data.doc = None     # the program gets the file, not the generator's DOM
    db_path = run.tmp / "ingest.db"
    seconds = run.seconds / 2 if run.traced else run.seconds
    walls: list[float] = []
    rows = 0
    kept = None
    cpu = 0.0
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        if kept is not None:
            kept[3].close()
            kept = None     # one parsed document alive at a time
        cpu0 = time.process_time()
        for suffix in ("", "-wal", "-shm"):
            Path(f"{db_path}{suffix}").unlink(missing_ok=True)
        kept = ingest_once(run, data, str(db_path), hybrid_inlining,
                           INGEST_CONFIGURATION)
        walls.append(run.samples["ingest"][-1])
        rows += sum(kept[3].row_counts.values())
        cpu += time.process_time() - cpu0
        run.tick()
    doc, stats, schema, backend = kept
    queries = [Query(x) for x in INGEST_QUERIES]
    try:
        loaded = sum(backend.row_counts.values())
        wall = statistics.median(walls)
        n = len(walls)
        run.attempted += n
        run.put("ingest_s", wall, n)
        run.put("ingest_rows_per_s", loaded / wall, n)
        run.put("ops_per_s", loaded / wall, n)
        run.put("p50_ms", 1e3 * wall, n)
        run.put("cpu_us_per_op", 1e6 * cpu / rows, rows)
        if run.traced:
            layer_census(run, data, stats, hybrid_inlining(data.tree),
                         schema, INGEST_CONFIGURATION, queries,
                         zipf_weights(len(queries), 1.0), (50, 200),
                         run.seconds / 2, ingested=(doc, backend))
        else:
            offline_metrics(run, data, doc, backend,
                            shred_only(run, schema, doc))
            translator = Translator(schema)
            verify(run, lambda x: backend.execute(translator.translate(x)),
                   queries, doc)
        run.put("storage_amplification",
                run.values["backends.storage_amplification"][0])
    finally:
        backend.close()


def advise(run: Run) -> None:
    scale, n_queries = run.size["advise_scale"], run.size["advise_queries"]

    def build():
        problems = []
        for dataset in ("dblp", "movie"):
            data = make_document(run, dataset, scale)
            stats = collect_statistics(data.tree, data.doc)
            suite = WorkloadGenerator(data.tree, stats, seed=SHAPE_SEED
                                      ).standard_suite(n_queries)
            problems += [(data, stats, workload) for workload in suite]
        return problems

    problems = repeat_setup(run, build, reps=min(5, run.size["setup_reps"]))
    seconds = run.seconds / 2 if run.traced else run.seconds
    times: list[list[float]] = [[] for _ in problems]
    first: list = [None] * len(problems)
    cpu = 0.0
    start = time.perf_counter()
    turn = 0
    while turn < len(problems) or time.perf_counter() - start < seconds:
        slot = turn % len(problems)
        data, stats, workload = problems[slot]
        cpu0 = time.process_time()
        with run.timed(f"search.greedy.{data.dataset}"):
            result = greedy(data.tree, workload, stats)
        cpu += time.process_time() - cpu0
        run.tick()
        times[slot].append(run.samples[f"search.greedy.{data.dataset}"][-1])
        if first[slot] is None:
            first[slot] = result
            run.attempted += 1
        else:
            run.check((result.schema.signature(), result.estimated_cost)
                      == (first[slot].schema.signature(),
                          first[slot].estimated_cost),
                      f"{data.dataset} {workload.name}: design differs "
                      f"between repeats")
        turn += 1
    advise_s = sum(statistics.median(t) for t in times)
    every = [t for slot in times for t in slot]
    run.put("advise_s", advise_s, turn)
    run.put("advise_est_cost", sum(r.estimated_cost for r in first))
    run.put("ops_per_s", len(problems) / advise_s, turn)
    run.put("p50_ms", 1e3 * statistics.median(every), turn)
    run.put("cpu_us_per_op", 1e6 * cpu / turn, turn)
    run.sizes.update(searches=turn, suite=[
        f"{data.dataset}:{workload.name}" for data, _, workload in problems])
    for dataset in ("dblp", "movie"):
        run.sizes[f"search.greedy_s.{dataset}"] = sum(
            statistics.median(t) for t, (data, _, _) in zip(times, problems)
            if data.dataset == dataset)
    if run.traced:
        run.put("search.greedy_s", advise_s, turn)
        search_metrics(run, first)
        data, stats, workload = problems[0]
        design = first[0]
        queries = [Query(str(q.query)) for q in workload.queries]
        layer_census(run, data, stats, design.mapping, design.schema,
                     design.configuration, queries,
                     zipf_weights(len(queries), 1.0), (100, 400),
                     run.seconds / 2, searched=True)


def _serve_points(run: Run, count: int, skew: float) -> None:
    """``serve_point`` and ``serve_coldplan``: same data, design and
    result size; only the working set against the plan cache differs."""

    def build():
        data = make_document(run, "dblp", run.size["point_pubs"])
        schema = derive_schema(hybrid_inlining(data.tree))
        return data, schema, start_service(run, schema, data.doc,
                                           POINT_CONFIGURATION)

    data, schema, service = repeat_setup(run, build,
                                         lambda state: state[2].close())
    try:
        queries = point_queries(run, data, count)
        xpaths = [q.xpath for q in queries]
        weights = zipf_weights(count, skew)
        expected = verify(run, lambda x: service.serve(x).rows, queries,
                          data.doc)
        run.sizes.update(distinct_queries=count,
                         plan_cache_capacity=service.plan_cache.capacity)
        if run.traced:
            stats = collect_statistics(data.tree, data.doc)
            layer_census(run, data, stats, hybrid_inlining(data.tree),
                         schema, POINT_CONFIGURATION, queries, weights,
                         (500, 2000), run.seconds, service=service,
                         expected=expected)
        else:
            gated_arm(run, service, xpaths, expected,
                      lambda: Schedule(weights, run.seed), run.seconds)
    finally:
        service.close()


def serve_point(run: Run) -> None:
    _serve_points(run, run.size["hot"], 1.0)


def serve_coldplan(run: Run) -> None:
    _serve_points(run, run.size["cold"], 0.0)


def serve_scan(run: Run) -> None:
    def build():
        data = make_document(run, "dblp", run.size["scan_pubs"],
                             SCAN_DATA_SEED)
        run.tick()      # one long set-up: sample the machine along it
        stats = collect_statistics(data.tree, data.doc)
        workload = WorkloadGenerator(data.tree, stats, seed=SHAPE_SEED
                                     ).generate(run.size["scan_queries"])
        run.tick()
        with run.timed("search.greedy_s"):
            joint = greedy(data.tree, workload, stats)
        run.tick()
        hybrid = derive_schema(hybrid_inlining(data.tree))
        translator = Translator(hybrid)
        advisor = IndexTuningAdvisor(
            build_stats_only_database(hybrid, stats))
        tuned = advisor.tune([(translator.translate(q.query), q.weight)
                              for q in workload.queries])
        service = start_service(run, joint.schema, data.doc,
                                joint.configuration)
        run.tick()
        baseline = start_service(run, hybrid, data.doc, tuned.configuration)
        return data, stats, workload, joint, (service, baseline)

    def dispose(state):
        for service in state[4]:
            service.close()

    state = repeat_setup(run, build, dispose, reps=1)   # ~7 s each
    data, stats, workload, joint, (service, baseline) = state
    try:
        queries = [Query(str(q.query)) for q in workload.queries]
        xpaths = [q.xpath for q in queries]
        expected = verify(run, lambda x: service.serve(x).rows, queries,
                          data.doc)
        designs = (("joint", service, expected),
                   ("baseline", baseline,
                    verify(run, lambda x: baseline.serve(x).rows, queries,
                           data.doc)))
        start = time.perf_counter()
        # Designs alternate per request, so drift in machine speed over
        # the arm falls on both alike and cancels in the ratio.
        laps = {"joint": [[] for _ in queries],
                "baseline": [[] for _ in queries]}
        for _ in range(run.size["sequential_reps"]):
            run.tick(1)
            for slot, xpath in enumerate(xpaths):
                for label, target, rows in designs:
                    t0 = time.perf_counter()
                    answer = target.serve(xpath).rows
                    laps[label][slot].append(time.perf_counter() - t0)
                    run.check(answer == rows[slot],
                              f"{label} answer changed: {xpath}")
        cost = {label: 1e3 * sum(
            weighted.weight * statistics.median(times)
            for weighted, times in zip(workload.queries, series))
            for label, series in laps.items()}
        baseline.close()
        n = run.size["sequential_reps"] * len(queries)
        run.put("workload_ms", cost["joint"], n)
        run.put("design_speedup", cost["baseline"] / cost["joint"], n)
        size = database_bytes(service.backend)
        run.put("storage_amplification", size / data.xml_bytes)
        run.sizes.update(distinct_queries=len(queries), db_bytes=size,
                         xml_bytes=data.xml_bytes,
                         joint_applied=list(joint.applied))
        weights = zipf_weights(len(queries), 0.0)
        if run.traced:
            search_metrics(run, [joint])
            layer_census(run, data, stats, joint.mapping, joint.schema,
                         joint.configuration, queries, weights, (50, 150),
                         run.seconds, searched=True, service=service,
                         expected=expected)
        else:
            gated_arm(run, service, xpaths, expected,
                      lambda: Passes(len(queries), run.seed),
                      run.seconds - (time.perf_counter() - start),
                      per_op=len(queries))
    finally:
        dispose(state)


RUNNERS = {"ingest": ingest, "advise": advise, "serve_point": serve_point,
           "serve_coldplan": serve_coldplan, "serve_scan": serve_scan}
