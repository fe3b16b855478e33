"""Serving-layer tests: per-thread SQLite connections, the timed-run
contract, the plan cache, the query service, the seeded load harness,
differential validation under load, and the serve/loadgen CLI."""

import contextlib
import io
import json
import sys
import threading
import time

import pytest

from repro.backends import (EngineBackend, SQLiteBackend, duckdb_available,
                            multiset_diff)
from repro.backends.sqlite import BackendError
from repro.cli import main as cli_main
from repro.errors import TranslationError, WorkloadError, XPathError
from repro.experiments import DatasetBundle
from repro.mapping import derive_schema, fully_split, hybrid_inlining
from repro.obs import LatencyHistogram
from repro.serve import LoadGenerator, PlanCache, QueryService, ServiceError
from repro.translate import Translator
from repro.workload import MixSampler, Workload, zipf_mix
from repro.workload.model import WeightedQuery
from repro.xmlkit import Document, Element
from repro.xpath import evaluate_values, lex, parse_xpath

from .test_equivalence import result_values

SCALE = 60
SEED = 7


@pytest.fixture(scope="module")
def dblp_bundle():
    return DatasetBundle.dblp(scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def dblp_serving(dblp_bundle):
    """Schema + loaded SQLite backend + a generated workload."""
    schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
    backend = SQLiteBackend()
    backend.load(schema, dblp_bundle.docs)
    workload = dblp_bundle.workload_generator(seed=SEED).generate(6)
    yield schema, backend, workload
    backend.close()


def _bundle(dataset: str):
    make = DatasetBundle.dblp if dataset == "dblp" else DatasetBundle.movie
    return make(scale=SCALE, seed=SEED)


def run_cli(args) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(args)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# Satellite 1: the backend survives concurrent execution
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _parked_after(fn, *args, threads: int):
    """Run ``fn(*args)`` on ``threads`` fresh threads and keep them
    alive, parked, for the body of the ``with``; joined on exit."""
    done = threading.Barrier(threads + 1)
    release = threading.Event()

    def run() -> None:
        try:
            fn(*args)
        finally:
            done.wait(timeout=30)
            release.wait(timeout=30)

    pool = [threading.Thread(target=run) for _ in range(threads)]
    for thread in pool:
        thread.start()
    try:
        done.wait(timeout=30)
        yield
    finally:
        release.set()
        for thread in pool:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in pool)


class TestSQLiteConcurrency:
    def test_same_query_from_four_threads(self, dblp_serving):
        """Regression: one shared connection used to either throw
        check_same_thread errors or race cursors; per-thread
        connections must return identical, error-free results."""
        schema, backend, _ = dblp_serving
        query = Translator(schema).translate(
            parse_xpath("//inproceedings/title"))
        expected = backend.execute(query)
        assert expected
        errors, results = [], {}
        barrier = threading.Barrier(4)

        def worker(i: int) -> None:
            try:
                barrier.wait()
                for _ in range(5):
                    results[i] = backend.execute(query)
            except Exception as exc:  # noqa: BLE001 - collected, asserted
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for rows in results.values():
            missing, extra = multiset_diff(expected, rows)
            assert not missing and not extra

    def test_worker_connections_are_per_thread(self, dblp_bundle):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        with SQLiteBackend() as backend:
            backend.load(schema, dblp_bundle.docs)
            query = Translator(schema).translate(
                parse_xpath("//inproceedings/title"))
            before = backend.open_connections
            with _parked_after(backend.execute, query, threads=3):
                # Each live thread opened exactly one connection ...
                assert backend.open_connections == before + 3
            # ... and gave it back when it ended.
            assert backend.open_connections == before

    def test_close_closes_every_connection(self, dblp_bundle):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        backend = SQLiteBackend()
        backend.load(schema, dblp_bundle.docs)
        query = Translator(schema).translate(
            parse_xpath("//inproceedings/title"))
        # Two threads still alive at close(): their connections are
        # close()'s to release, not the end-of-thread sweep's.
        with _parked_after(backend.execute, query, threads=2):
            assert backend.open_connections >= 3
            backend.close()
            assert backend.open_connections == 0
        with pytest.raises(BackendError):
            backend.execute(query)

    def test_read_only_backend_rejects_writes(self, dblp_bundle, tmp_path):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        path = str(tmp_path / "serve.db")
        loader = SQLiteBackend(path)
        loader.load(schema, dblp_bundle.docs)
        loader.close()
        with SQLiteBackend(path, read_only=True) as backend:
            table = schema.table_names[0]
            with pytest.raises(BackendError):
                backend.execute_sql(f"DELETE FROM {table}")
            # ... from worker threads too.
            failures = []

            def try_write() -> None:
                try:
                    backend.execute_sql(f"DELETE FROM {table}")
                except BackendError:
                    failures.append("rejected")

            thread = threading.Thread(target=try_write)
            thread.start()
            thread.join()
            assert failures == ["rejected"]


# ----------------------------------------------------------------------
# Satellite 2: the time_query warmup/exclusivity contract
# ----------------------------------------------------------------------


class TestTimeQueryContract:
    def test_warmup_plus_timed_runs_on_calling_threads_connection(
            self, dblp_serving):
        schema, backend, _ = dblp_serving
        query = Translator(schema).translate(
            parse_xpath("//inproceedings/title"))
        connection = backend._thread_connection()
        statements = []
        connection.set_trace_callback(statements.append)
        try:
            timing = backend.time_query(query, repeat=3, warmup=2)
        finally:
            connection.set_trace_callback(None)
        # Every run (2 warmup + 3 timed) hit THIS thread's connection.
        selects = [s for s in statements if s.lstrip().upper()
                   .startswith("SELECT")]
        assert len(selects) == 5
        assert timing.rows > 0 and timing.seconds >= 0

    def test_concurrent_time_query_calls_never_overlap(self, dblp_serving,
                                                       monkeypatch):
        schema, backend, _ = dblp_serving
        query = Translator(schema).translate(
            parse_xpath("//inproceedings/title"))
        intervals = []
        lock = threading.Lock()
        import repro.backends.dbms as dbms_module
        real_timed_runs = dbms_module.timed_runs

        def slow_timed_runs(fn, repeat, warmup):
            start = time.perf_counter()
            time.sleep(0.01)
            timing = real_timed_runs(fn, repeat=repeat, warmup=warmup)
            with lock:
                intervals.append((start, time.perf_counter()))
            return timing

        monkeypatch.setattr(dbms_module, "timed_runs", slow_timed_runs)
        threads = [threading.Thread(
            target=backend.time_query, args=(query,)) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(intervals) == 4
        intervals.sort()
        for (_, end), (next_start, _) in zip(intervals, intervals[1:]):
            assert next_start >= end  # strictly one benchmark at a time

    def test_execute_is_not_excluded_by_the_timing_lock(self, dblp_serving):
        """The serve path must keep answering while a benchmark holds
        the timing lock — they are different paths by contract."""
        schema, backend, _ = dblp_serving
        query = Translator(schema).translate(
            parse_xpath("//inproceedings/title"))
        assert backend._timing_lock.acquire(timeout=1)
        try:
            done = threading.Event()

            def serve() -> None:
                backend.execute(query)
                done.set()

            thread = threading.Thread(target=serve)
            thread.start()
            thread.join(timeout=5)
            assert done.is_set()
        finally:
            backend._timing_lock.release()


# ----------------------------------------------------------------------
# The plan cache
# ----------------------------------------------------------------------


class TestPlanCache:
    def test_hit_after_miss_and_key_stability(self, dblp_serving):
        schema, _, _ = dblp_serving
        cache = PlanCache(schema, capacity=8)
        text = "//inproceedings/title"
        first, first_hit = cache.get_or_translate(text)
        second, second_hit = cache.get_or_translate(parse_xpath(text))
        assert (first.key, first.xpath, first.sql) == \
            (second.key, second.xpath, second.sql)
        assert (first_hit, second_hit) == (False, True)
        assert (cache.hits, cache.misses) == (1, 1)
        assert first.key == cache.key_for(parse_xpath(text))

    def test_lru_eviction_and_retranslation(self, dblp_serving):
        schema, backend, workload = dblp_serving
        queries = [str(w.query) for w in workload.queries[:3]]
        assert len({lex(q)[0] for q in queries}) == 3   # distinct shapes
        cache = PlanCache(schema, capacity=2)
        plans = [cache.get_or_translate(q)[0] for q in queries]
        assert len(cache) == 2 and cache.evictions == 1
        again, hit = cache.get_or_translate(queries[0])
        assert not hit  # the least recently used one was evicted
        assert cache.misses == 4  # re-translated after eviction
        assert again.sql == plans[0].sql  # translation is pure

    def test_key_covers_the_mapping_digest(self, dblp_bundle):
        hybrid = derive_schema(hybrid_inlining(dblp_bundle.tree))
        split = derive_schema(fully_split(dblp_bundle.tree))
        query = parse_xpath("//inproceedings/title")
        assert (PlanCache(hybrid).key_for(query)
                != PlanCache(split).key_for(query))

    def test_concurrent_misses_settle_on_one_entry(self, dblp_serving):
        schema, _, _ = dblp_serving
        cache = PlanCache(schema, capacity=8)
        barrier = threading.Barrier(4)
        plans = []
        lock = threading.Lock()

        def translate() -> None:
            barrier.wait()
            plan, _ = cache.get_or_translate("//inproceedings/title")
            with lock:
                plans.append(plan)

        threads = [threading.Thread(target=translate) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 1
        assert len({(p.key, p.xpath, p.sql) for p in plans}) == 1
        assert len({id(p.template) for p in plans}) == 1  # first finisher won

    def test_one_entry_serves_every_literal_of_a_shape(self, dblp_serving):
        schema, backend, _ = dblp_serving
        cache = PlanCache(schema, capacity=8, render=backend.sql_text)
        translator = Translator(schema)
        plans = {}
        for year in ("1999", "2000", "it's"):
            text = f'/dblp/inproceedings[year >= "{year}"]/title'
            plan, hit = cache.get_or_translate(text)
            assert hit == bool(plans)
            assert plan.xpath == text and plan.values == (year,)
            assert plan.sql == translator.translate(text)
            assert plan.statement == (plans.setdefault(
                "text", plan.statement.sql), (year,))
            assert year not in plan.statement.sql
            assert plan.key == plans.setdefault("key", plan.key)
        assert len(cache) == 1 and cache.stats()["hit_rate"] == 2 / 3
        # Without a binding dialect the statement is the literal query.
        literal, _ = PlanCache(schema).get_or_translate(text)
        assert literal.statement == literal.sql == plan.sql

    def test_a_refused_query_caches_nothing(self, dblp_serving):
        schema, _, _ = dblp_serving
        cache = PlanCache(schema, capacity=8)
        for bad, error in (("/dblp/inproceedings[title = 'a' 'b']", XPathError),
                           ("/dblp/nonexistent[x = 1]", TranslationError)):
            for _ in range(2):
                with pytest.raises(error):
                    cache.get_or_translate(bad)
        assert len(cache) == 0 and (cache.hits, cache.misses) == (0, 4)


# ----------------------------------------------------------------------
# The query service
# ----------------------------------------------------------------------


class TestQueryService:
    def test_serves_translated_results_and_counts(self, dblp_bundle):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        with QueryService(schema, dblp_bundle.docs, workers=2) as service:
            text = "//inproceedings/title"
            first = service.serve(text)
            second = service.serve(text)
            assert first.rows and first.rows == second.rows
            assert not first.cached_plan and second.cached_plan
            assert first.plan_key == second.plan_key
            stats = service.stats()
            assert stats.requests == 2 and stats.errors == 0
            assert stats.latency["count"] == 2
        with pytest.raises(ServiceError):
            service.serve(text)

    def test_errors_are_counted_and_raised(self, dblp_bundle):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        with QueryService(schema, dblp_bundle.docs, workers=2) as service:
            with pytest.raises(Exception):
                service.serve("//no_such_element/anywhere")
            assert service.stats().errors == 1

    def test_warm_request_probes_the_plan_cache_once(self, dblp_bundle,
                                                     monkeypatch):
        """One request whose literal was never seen but whose *shape*
        is cached: a lexer pass and one acquisition of the cache lock
        are all the plan costs — no parse, no canonical-text rendering
        of an AST, no key digest, no SQL rendering — the driver gets
        the cached text with the value bound, and ``cached_plan`` comes
        out of that same probe."""
        import repro.serve.plan_cache as plan_cache_module
        import repro.xpath.parser as parser_module
        from repro.backends import Dialect
        from repro.xpath.ast import XPathQuery

        class CountingLock:
            def __init__(self, lock):
                self.lock, self.acquired = lock, 0

            def __enter__(self):
                self.acquired += 1
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        calls = {"parse": 0, "render": 0, "digest": 0, "sql": 0}
        executed = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        text = "/dblp/inproceedings[ title='never seen before' ]/year"
        with QueryService(schema, dblp_bundle.docs, workers=1) as service:
            cold = service.serve('/dblp/inproceedings[title = "first"]/year')
            # Every way into the parser: parse_xpath reads its module's
            # parse_tokens, the cache holds its own reference.
            for module in (parser_module, plan_cache_module):
                monkeypatch.setattr(module, "parse_tokens", counted(
                    "parse", module.parse_tokens))
            monkeypatch.setattr(XPathQuery, "__str__", counted(
                "render", XPathQuery.__str__))
            monkeypatch.setattr(plan_cache_module.hashlib, "sha1", counted(
                "digest", plan_cache_module.hashlib.sha1))
            monkeypatch.setattr(Dialect, "render_query", counted(
                "sql", Dialect.render_query))
            cache = service.plan_cache
            cache._render = counted("sql", cache._render)
            lock = cache._lock = CountingLock(cache._lock)
            connection = service.backend._thread_connection

            class Driver:
                def execute(self, sql, params=()):
                    executed.append((sql, params))
                    return connection().execute(sql, params)

            service.backend._thread_connection = Driver
            warm = service.serve(text)
            monkeypatch.undo()
        assert calls == {"parse": 0, "render": 0, "digest": 0, "sql": 0}
        assert lock.acquired == 1
        (sql, params), = executed
        assert params == ("never seen before",) and "never" not in sql
        assert warm.cached_plan and not cold.cached_plan
        assert warm.plan_key == cold.plan_key
        assert warm.xpath == str(parse_xpath(text)) != cold.xpath

    def test_cached_plan_agrees_with_the_cache_counters(self, dblp_bundle):
        """Four workers thrashing a two-entry cache: every result's
        ``cached_plan`` is the probe's own hit/miss decision, so the
        results and the cache's counters can never disagree (two
        separately locked probes could, whenever another worker
        inserted or evicted in between)."""
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        workload = dblp_bundle.workload_generator(seed=SEED).generate(6)
        queries = sorted({str(w.query) for w in workload.queries})
        assert len({lex(q)[0] for q in queries}) >= 6   # distinct shapes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(schema, dblp_bundle.docs, workers=4,
                              plan_cache_size=2,
                              max_queue=None) as service:
                before = service.plan_cache.stats()
                futures = [service.submit(queries[i % len(queries)])
                           for i in range(2000)]
                results = [f.result(timeout=60) for f in futures]
                after = service.plan_cache.stats()
        finally:
            sys.setswitchinterval(interval)
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        assert sum(r.cached_plan for r in results) == hits
        assert len(results) == hits + misses
        assert misses > len(queries)  # the cache really did thrash

    def test_file_backed_service_serves_read_only(self, dblp_bundle,
                                                  tmp_path):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        path = str(tmp_path / "design.db")
        with QueryService(schema, dblp_bundle.docs, workers=2,
                          db_path=path) as service:
            result = service.serve("//inproceedings/title")
            assert result.rows
            assert service.backend.read_only
            with pytest.raises(BackendError):
                service.backend.execute_sql(
                    f"DELETE FROM {schema.table_names[0]}")

    def test_both_services_serve_the_design_that_was_costed(
            self, tmp_path, monkeypatch):
        """A tuned design with join views: the in-memory and the
        file-backed read-only service hold the same SQL text per shape,
        over the view tables, and pay the rewrite on a miss only."""
        from repro.backends import dbms
        from repro.search import design_for
        bundle = DatasetBundle.dblp(scale=400, seed=SEED)
        workload = bundle.workload_generator(41).generate(10)
        design = design_for("hybrid", bundle.tree, workload, bundle.stats,
                            bundle.storage_bound)
        assert design.configuration.views
        rewrites = []
        monkeypatch.setattr(
            dbms, "select_over_view",
            lambda select, view, inner=dbms.select_over_view:
            rewrites.append(view.name) or inner(select, view))
        xpaths = sorted({str(w.query) for w in workload.queries})
        with QueryService(design.schema, bundle.docs, design.configuration,
                          workers=1) as memory, \
                QueryService(design.schema, bundle.docs,
                             design.configuration, workers=1,
                             db_path=str(tmp_path / "tuned.db")) as file:
            assert file.backend.read_only
            answers = [(memory.serve(x).rows, file.serve(x).rows)
                       for x in xpaths]
            paid = len(rewrites)
            texts = [(sent_text(memory, x), sent_text(file, x))
                     for x in xpaths]
            for x, (in_memory, in_file) in zip(xpaths, answers):
                assert in_memory == in_file == memory.serve(x).rows
        assert paid and len(rewrites) == paid   # never on a hit
        assert all(a == b for a, b in texts)
        over_views = [a for a, _ in texts if 'FROM "cand_view_' in a]
        assert over_views and all("?1" in text for text in over_views)


# ----------------------------------------------------------------------
# Bound values: the literal reaches SQLite as a parameter, never as text
# ----------------------------------------------------------------------

ODD_TITLES = ["it's", 'say "hi"', "?1", "100%", "x';--", "\u00dcn\u00efc\u00f6de \u6a19\u984c",
              "", "plain"]


def odd_dblp() -> Document:
    """One inproceedings per odd title, years 1997 upwards."""
    root = Element("dblp")
    for i, title in enumerate(ODD_TITLES):
        pub = root.make_child("inproceedings")
        for tag, text in (("title", title), ("booktitle", "VLDB"),
                          ("year", str(1997 + i)), ("author", f"A {i}"),
                          ("pages", "1-2")):
            pub.make_child(tag, text)
    return Document(root)


def sent_text(service, text: str) -> str:
    """The one SQL text the service's cache holds for ``text``'s shape."""
    plan, hit = service.plan_cache.get_or_translate(text)
    assert hit
    return plan.statement.sql


class TestBoundValues:
    @pytest.fixture(scope="class")
    def odd_service(self, dblp_bundle):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        doc = odd_dblp()
        with QueryService(schema, [doc], workers=1) as service:
            sent = []
            execute_sql = service.backend.execute_sql
            service.backend.execute_sql = lambda sql, params=(): (
                sent.append((sql, params)), execute_sql(sql, params))[1]
            yield service, doc, sent

    @pytest.mark.parametrize("title", ODD_TITLES)
    def test_odd_titles_are_bound_not_spliced(self, odd_service, title):
        service, doc, sent = odd_service
        quote = "'" if '"' in title else '"'
        text = f"/dblp/inproceedings[title = {quote}{title}{quote}]/year"
        del sent[:]
        result = service.serve(text)
        assert sorted(result_values(result)) == \
            sorted(evaluate_values(parse_xpath(text), doc))
        assert len(result.rows) == 1 and result.xpath == text
        (sql, params), = sent
        assert params == (title,)
        assert sql == sent_text(service, text) and "?1" in sql
        if title not in ("", "?1"):
            assert title not in sql

    @pytest.mark.parametrize("predicate, years", [
        ('year >= "2000"', 5), ("year = 2000", 1), ('year = "2000.0"', 1),
        ("year < 1999.5", 3), ('year != " 2000"', 7), ('year > "abc"', 0),
        ('year <= ""', 8)])     # SQLite: any number sorts before any text
    def test_integer_column_compares_as_the_literal_rendering_does(
            self, odd_service, predicate, years):
        service, doc, _ = odd_service
        text = f"/dblp/inproceedings[{predicate}]/title"
        result = service.serve(text)
        plan, _ = service.plan_cache.get_or_translate(text)
        assert result.rows == service.backend.execute(plan.sql)
        assert len(result.rows) == years

    def test_every_literal_of_a_shape_reports_one_plan_key(self, odd_service):
        service, _, _ = odd_service
        results = [service.serve(
            f'/dblp/inproceedings[booktitle = "{venue}"]/(title | year)')
            for venue in ("VLDB", "ICDE", "VLDB")]
        assert len({r.plan_key for r in results}) == 1
        assert [r.cached_plan for r in results] == [False, True, True]
        assert [len(r.rows) for r in results] == [len(ODD_TITLES), 0,
                                                  len(ODD_TITLES)]
        assert results[0].xpath != results[1].xpath


@pytest.mark.skipif(not duckdb_available(), reason="duckdb not installed")
@pytest.mark.parametrize("dataset", ["dblp", "movie"])
def test_duckdb_serves_literal_bearing_queries_like_the_engine(dataset):
    """DuckDB's dialect binds nothing (docs/serving.md): a plan-cache
    hit skips parse and translate, then splices the literal as before.
    The answers must still be the engine's."""
    bundle = _bundle(dataset)
    schema = derive_schema(hybrid_inlining(bundle.tree))
    workload = bundle.workload_generator(seed=SEED).generate(6)
    engine = EngineBackend()
    engine.load(schema, bundle.docs)
    translator = Translator(schema)
    with QueryService(schema, bundle.docs, workers=2,
                      backend="duckdb") as service:
        for _ in range(2):      # translated, then served from the cache
            for weighted in workload.queries:
                served = service.serve(weighted.query)
                missing, extra = multiset_diff(
                    engine.execute(translator.translate(weighted.query)),
                    served.rows)
                assert not missing and not extra, str(weighted.query)
        assert service.plan_cache.hits >= len(workload.queries)


# ----------------------------------------------------------------------
# Satellite 3: seed plumbing and load determinism
# ----------------------------------------------------------------------


class TestSeedDeterminism:
    def test_mix_sampler_requires_an_explicit_seed(self, dblp_serving):
        _, _, workload = dblp_serving
        mix = zipf_mix(workload)
        with pytest.raises(WorkloadError):
            MixSampler(mix, None)
        assert MixSampler(mix, 3).sequence(20) == \
            MixSampler(mix, 3).sequence(20)
        assert MixSampler(mix, 3).sequence(50) != \
            MixSampler(mix, 4).sequence(50)

    def test_zipf_mix_ranks_by_weight_deterministically(self):
        workload = Workload("w", queries=[
            WeightedQuery(parse_xpath("//a/b"), weight=1.0),
            WeightedQuery(parse_xpath("//a/c"), weight=5.0),
            WeightedQuery(parse_xpath("//a/d"), weight=5.0),
        ])
        mix = zipf_mix(workload, skew=1.0)
        # Heaviest first; equal weights keep workload order.
        assert [str(q) for q in mix.queries] == ["//a/c", "//a/d", "//a/b"]
        assert mix.probabilities[0] > mix.probabilities[1] \
            > mix.probabilities[2]
        assert abs(sum(mix.probabilities) - 1.0) < 1e-12

    def test_bisect_sampling_matches_the_linear_scan(self, dblp_serving):
        """``sample_index`` switched from an O(queries) linear scan to
        ``bisect_left`` over the cumulative bounds. The semantics —
        first bound >= the drawn point wins — are identical, so the
        sampled sequence for a fixed (mix, seed) must be byte-identical
        to the old scan's. The reference scan below IS the old
        implementation."""
        import random as random_module
        _, _, workload = dblp_serving
        for skew, seed in ((0.0, 3), (1.0, 7), (2.5, 11)):
            mix = zipf_mix(workload, skew=skew)
            sampler = MixSampler(mix, seed)
            reference_rng = random_module.Random(seed)
            cumulative = list(sampler._cumulative)

            def reference_draw() -> int:
                point = reference_rng.random()
                for index, bound in enumerate(cumulative):
                    if point <= bound:
                        return index
                return len(cumulative) - 1

            expected = [reference_draw() for _ in range(5000)]
            assert sampler.sequence(5000) == expected
            # The head-heavy mix must actually use several indices, or
            # the identity check proves nothing.
            assert len(set(expected)) > 1

    def test_same_seed_same_sequence_across_concurrency(self, dblp_bundle):
        """The reproducibility contract: the served query sequence is a
        pure function of (mix, seed) — client/worker counts may only
        change interleaving, never the schedule."""
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        workload = dblp_bundle.workload_generator(seed=SEED).generate(5)
        mix = zipf_mix(workload)
        digests = []
        sequences = []
        for clients, workers in ((2, 2), (5, 3)):
            with QueryService(schema, dblp_bundle.docs,
                              workers=workers) as service:
                generator = LoadGenerator(service, mix, seed=41,
                                          clients=clients)
                report = generator.run(requests=60)
                assert report.errors == 0
                assert report.sequence == generator.schedule(60)
                sequences.append(report.sequence)
                digests.append(report.sequence_digest)
        assert sequences[0] == sequences[1]
        assert digests[0] == digests[1]

    def test_open_loop_arrivals_have_their_own_stream(self, dblp_bundle):
        """Arrival draws must never shift the query schedule: open and
        closed loop runs with one seed serve the same sequence."""
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        workload = dblp_bundle.workload_generator(seed=SEED).generate(4)
        mix = zipf_mix(workload)
        with QueryService(schema, dblp_bundle.docs, workers=2) as service:
            closed = LoadGenerator(service, mix, seed=9, mode="closed")
            open_loop = LoadGenerator(service, mix, seed=9, mode="open",
                                      rate=5000.0)
            assert closed.schedule(30) == open_loop.schedule(30)
            report = open_loop.run(requests=30)
            assert report.sequence == closed.schedule(30)
            assert report.errors == 0

    def test_open_loop_latency_runs_from_the_scheduled_arrival(
            self, dblp_bundle):
        """A dispatcher that falls behind its schedule is queueing the
        client sees: with every submit costing 5 ms against 1 ms
        arrival gaps, lateness accumulates and later requests must
        report it (timing from the late submit instant hides it)."""
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        workload = dblp_bundle.workload_generator(seed=SEED).generate(4)
        mix = zipf_mix(workload)
        with QueryService(schema, dblp_bundle.docs, workers=2) as service:
            submit = service.submit

            def slow_submit(xpath):
                time.sleep(0.005)
                return submit(xpath)

            service.submit = slow_submit
            report = LoadGenerator(service, mix, seed=9, mode="open",
                                   rate=1000.0).run(requests=40)
        assert report.errors == 0
        # ~4 ms of lateness per request: ~40 ms by request 10, ~150 ms
        # by the end; the submit-stamped figure stays near 5 ms.
        seconds = [r.seconds for r in report.records]
        assert seconds[-1] > 0.08
        assert min(seconds[20:]) > max(0.04, seconds[0])

    def test_workload_generator_is_seed_deterministic(self, dblp_bundle):
        first = dblp_bundle.workload_generator(seed=13).generate(6)
        second = dblp_bundle.workload_generator(seed=13).generate(6)
        assert [str(w.query) for w in first.queries] == \
            [str(w.query) for w in second.queries]


# ----------------------------------------------------------------------
# Differential validation under load (both datasets, tiny cache)
# ----------------------------------------------------------------------


class TestDifferentialUnderLoad:
    @pytest.mark.parametrize("dataset", ["dblp", "movie"])
    def test_plan_cached_answers_match_the_engine(self, dataset):
        """Every response — cached plan, translated plan, and
        re-translated-after-eviction plan — must equal the engine
        oracle's answer as a row multiset."""
        bundle = _bundle(dataset)
        schema = derive_schema(hybrid_inlining(bundle.tree))
        workload = bundle.workload_generator(seed=SEED).generate(6)
        mix = zipf_mix(workload)
        engine = EngineBackend()
        engine.load(schema, bundle.docs)
        # Capacity 2 against 6 distinct queries forces evictions, so
        # the run exercises translate → cache → evict → re-translate.
        with QueryService(schema, bundle.docs, workers=3,
                          plan_cache_size=2) as service:
            report = LoadGenerator(service, mix, seed=17,
                                   clients=3).run(requests=90)
            assert report.errors == 0
            assert service.plan_cache.evictions > 0
            for query in mix.queries:
                served = service.serve(query)
                plan, _ = service.plan_cache.get_or_translate(query)
                missing, extra = multiset_diff(engine.execute(plan.sql),
                                               served.rows)
                assert not missing and not extra, \
                    f"{dataset}: {query} diverges from the engine"


# ----------------------------------------------------------------------
# The load report and latency accounting
# ----------------------------------------------------------------------


class TestLoadReport:
    def test_report_shape_and_serialization(self, dblp_bundle):
        schema = derive_schema(hybrid_inlining(dblp_bundle.tree))
        workload = dblp_bundle.workload_generator(seed=SEED).generate(4)
        mix = zipf_mix(workload)
        with QueryService(schema, dblp_bundle.docs, workers=2) as service:
            report = LoadGenerator(service, mix, seed=3,
                                   clients=2).run(requests=40)
            assert len(report.records) == 40
            assert report.qps > 0
            assert 0 < report.cached_plan_rate <= 1.0
            assert report.latency(50) <= report.latency(95) \
                <= report.latency(99) <= report.latency(100)
            payload = json.loads(json.dumps(report.to_dict()))
            assert payload["requests"] == 40
            assert payload["latency_seconds"]["p50"] >= 0
            assert payload["sequence_digest"] == report.sequence_digest
            traffic = payload["by_query"]
            assert set(traffic) == {r.xpath for r in report.records}
            assert sum(q["requests"] for q in traffic.values()) == 40
            assert sum(q["errors"] for q in traffic.values()) == 0
            text = report.describe()
            assert "40 requests" in text and "QPS" in text


class TestLatencyHistogram:
    def test_observe_and_percentiles(self):
        histogram = LatencyHistogram("t")
        for ms in (1, 1, 2, 5, 10, 50, 100, 500):
            histogram.observe(ms / 1e3)
        assert histogram.count == 8
        assert histogram.max == pytest.approx(0.5)
        assert 0 < histogram.percentile(50) <= histogram.percentile(95)
        assert histogram.percentile(100) <= histogram.max + 1e-9
        snapshot = histogram.snapshot()
        assert set(snapshot) == {"count", "mean", "max",
                                 "p50", "p95", "p99"}
        assert sum(c for _, c in histogram.nonzero_buckets()) == 8

    def test_out_of_range_values_clamp(self):
        histogram = LatencyHistogram("t", lo=1e-3, hi=1.0)
        histogram.observe(1e-9)   # below the first bucket
        histogram.observe(100.0)  # beyond the last bound
        assert histogram.count == 2
        assert histogram.max == pytest.approx(100.0)
        assert histogram.percentile(100) <= 100.0

    def test_empty_histogram(self):
        histogram = LatencyHistogram("t")
        assert histogram.count == 0
        assert histogram.percentile(99) == 0.0
        assert histogram.snapshot()["mean"] == 0.0

    def test_thread_safe_observe(self):
        histogram = LatencyHistogram("t")

        def observe() -> None:
            for _ in range(500):
                histogram.observe(0.001)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 2000


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestServeCLI:
    def test_serve_one_shot_query(self):
        code, out = run_cli([
            "serve", "--dataset", "dblp", "--scale", "60",
            "--queries", "4", "--seed", "7",
            "--xpath", "//inproceedings/title", "--limit", "2"])
        assert code == 0
        assert "rows in" in out and "translated plan" in out

    def test_loadgen_smoke_verify_and_artifacts(self, tmp_path):
        json_path = tmp_path / "run.json"
        code, out = run_cli([
            "loadgen", "--dataset", "dblp", "--scale", "60",
            "--queries", "5", "--seed", "7", "--requests", "60",
            "--clients", "2", "--workers", "2",
            "--smoke", "--verify", "--json", str(json_path)])
        assert code == 0
        assert "smoke OK" in out and "verify OK" in out
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["requests"] == 60 and payload["errors"] == 0
        assert payload["qps"] > 0
        cache = payload["plan_cache"]
        assert cache["hits"] > 0
        assert cache["hits"] + cache["misses"] == 60
        assert sum(q["requests"]
                   for q in payload["by_query"].values()) == 60

    LOADGEN = ["loadgen", "--dataset", "dblp", "--scale", "30",
               "--queries", "3", "--seed", "7"]

    @pytest.fixture
    def no_load(self, monkeypatch):
        """Fails the test if the command gets as far as loading data."""
        import repro.cli

        def must_not_load(*args, **kwargs):
            raise AssertionError("loaded data for a refused command")

        monkeypatch.setattr(repro.cli, "_serve_inputs", must_not_load)

    @pytest.mark.parametrize("flags, message", [
        (["--clients", "0"], "--clients must be >= 1"),
        (["--workers", "0"], "--workers must be >= 1"),
        (["--plan-cache", "0"], "--plan-cache must be >= 1"),
        (["--requests", "0"], "--requests must be >= 1"),
        (["--mode", "open", "--rate", "0"], "--rate must be > 0"),
        (["--duration", "0"], "--duration must be > 0"),
        (["--deadline", "0"], "--deadline must be > 0"),
    ], ids=["clients", "workers", "plan-cache", "requests", "rate",
            "duration", "deadline"])
    def test_loadgen_refuses_a_bad_number_before_loading(
            self, flags, message, no_load, capsys):
        """Each is refused by the argument parser, naming the flag,
        before any data loads — not by the service or the generator
        after the dataset is loaded, and ``--requests 0`` is not a run
        that sends nothing and exits 0."""
        argv = self.LOADGEN + ["--requests", "5"] + flags
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_loadgen_refuses_a_run_with_no_stop_bound(self, no_load):
        with pytest.raises(SystemExit, match="--requests, --duration"):
            run_cli(self.LOADGEN)

    def test_verify_does_not_leak_into_the_smoke_gate(self, tmp_path):
        """One request is one miss and no hit. ``--verify`` then serves
        and re-probes every distinct query (guaranteed hits), which
        must not reach the smoke check or the JSON's plan-cache
        numbers."""
        json_path = tmp_path / "run.json"
        code, out = run_cli([
            "loadgen", "--dataset", "dblp", "--scale", "60",
            "--queries", "5", "--seed", "7", "--requests", "1",
            "--clients", "1", "--smoke", "--verify",
            "--json", str(json_path)])
        assert code == 1
        assert "plan cache never hit" in out and "smoke OK" not in out
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["plan_cache"]["hits"] == 0
        assert payload["plan_cache"]["misses"] == 1

    def test_loadgen_cli_is_seed_deterministic(self):
        def digest() -> str:
            code, out = run_cli([
                "loadgen", "--dataset", "dblp", "--scale", "60",
                "--queries", "5", "--seed", "21", "--requests", "40",
                "--clients", "3"])
            assert code == 0
            line = [l for l in out.splitlines()
                    if "sequence digest" in l][0]
            return line.rsplit(":", 1)[1].strip()

        assert digest() == digest()
