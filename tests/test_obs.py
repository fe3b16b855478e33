"""Tests for the observability subsystem (repro.obs).

Covers the tracer core (nesting, determinism, the no-op singleton),
exporters, and — the load-bearing guarantee — that the trace's
aggregated span attributes agree with the ``SearchCounters`` the
experiments report, after a full greedy run on the movie schema.
"""

import json

import pytest

from repro.datasets import generate_movies, movie_schema
from repro.mapping import collect_statistics
from repro.obs import (NULL_TRACER, MetricRegistry, Tracer, find_spans,
                       get_tracer, iter_spans, render_tree, set_tracer,
                       sum_attribute, summarize, to_json, trace_to_dicts)
from repro.search import GreedySearch
from repro.workload import Workload


class TestTracerCore:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                inner.set("k", 1)
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["outer"]
        assert [s.name for s in outer.children] == ["inner", "inner"]
        assert outer.children[0].attributes == {"k": 1}
        assert tracer.current is None

    def test_sequence_numbers_order_children_and_events(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            tracer.event("first")
            with tracer.span("child"):
                pass
            tracer.event("last")
        seqs = [root.events[0].seq, root.children[0].seq, root.events[1].seq]
        assert seqs == sorted(seqs)

    def test_incr_and_event_attributes(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.incr("hits")
            span.incr("hits", 2)
            span.event("e", kind="x")
        assert span.attributes["hits"] == 3
        assert span.events[0].name == "e"
        assert span.events[0].attributes == {"kind": "x"}

    def test_wall_time_accumulates(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            pass
        assert span.wall_time >= 0

    def test_exception_unwinds_stack(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.current is None

    def test_metrics_registry(self):
        tracer = Tracer()
        tracer.metrics("db").incr("estimate_calls")
        tracer.metrics("db").incr("estimate_calls", 4)
        assert tracer.metrics("db") is tracer.metrics("db")
        assert tracer.metric_snapshot() == {"db": {"estimate_calls": 5}}

    def test_metric_registry_snapshot_sorted(self):
        registry = MetricRegistry("c")
        registry.incr("zz")
        registry.incr("aa")
        assert list(registry.snapshot()) == ["aa", "zz"]


class TestNullTracer:
    def test_disabled_tracer_records_nothing(self):
        with NULL_TRACER.span("ignored", attr=1) as span:
            span.set("k", "v")
            span.incr("n")
            span.event("e")
            NULL_TRACER.event("top")
        assert not NULL_TRACER.spans
        assert not NULL_TRACER.events
        assert span.attributes == {}
        assert not NULL_TRACER.enabled

    def test_null_span_is_a_shared_singleton(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_null_metrics_vanish(self):
        registry = NULL_TRACER.metrics("db")
        registry.incr("calls", 10)
        assert registry.get("calls") == 0
        assert NULL_TRACER.metric_snapshot() == {}

    def test_ambient_tracer_install_and_clear(self):
        assert get_tracer() is NULL_TRACER
        tracer = Tracer()
        try:
            assert set_tracer(tracer) is tracer
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER


class TestExport:
    def _sample(self):
        tracer = Tracer()
        with tracer.span("tune", queries=2) as span:
            span.set("optimizer_calls", 7)
            tracer.event("cache_hit", kind="exact")
            with tracer.span("estimate"):
                pass
        return tracer

    def test_render_tree_is_deterministic_without_times(self):
        text = render_tree(self._sample(), include_times=False)
        assert text == ("- tune optimizer_calls=7 queries=2\n"
                        "  * cache_hit kind=exact\n"
                        "  - estimate")
        assert render_tree(self._sample(), include_times=False) == text

    def test_render_tree_includes_times_by_default(self):
        assert "ms]" in render_tree(self._sample())

    def test_to_json_round_trips(self):
        document = json.loads(to_json(self._sample()))
        assert document["spans"][0]["name"] == "tune"
        assert document["spans"][0]["attributes"]["optimizer_calls"] == 7
        assert document["spans"][0]["children"][0]["name"] == "estimate"
        assert document["spans"][0]["events"][0]["name"] == "cache_hit"

    def test_trace_to_dicts_attribute_order_sorted(self):
        document = trace_to_dicts(self._sample(), include_times=False)
        attributes = document["spans"][0]["attributes"]
        assert list(attributes) == sorted(attributes)

    def test_find_and_sum(self):
        tracer = self._sample()
        assert [s.name for s in iter_spans(tracer)] == ["tune", "estimate"]
        assert len(find_spans(tracer, "estimate")) == 1
        assert sum_attribute(find_spans(tracer, "tune"),
                             "optimizer_calls") == 7

    def test_summarize_aggregates(self):
        text = summarize(self._sample())
        assert "tune" in text and "optimizer_calls=7" in text

    def test_empty_tracer_exports(self):
        tracer = Tracer()
        assert render_tree(tracer) == "(no spans recorded)"
        assert summarize(tracer) == "(no spans recorded)"
        assert json.loads(to_json(tracer)) == {"spans": [], "events": [],
                                               "metrics": {}}


@pytest.fixture(scope="module")
def movie_run():
    tree = movie_schema()
    doc = generate_movies(400, seed=11)
    stats = collect_statistics(tree, doc)
    workload = Workload.from_strings("w", [
        "//movie/year", "//movie/avg_rating",
        '//movie[year >= "1990"]/title', "//movie/box_office"])
    tracer = Tracer()
    search = GreedySearch(tree, workload, stats, tracer=tracer)
    result = search.run()
    return tracer, result


class TestSearchTraceAgreesWithCounters:
    """The trace is only auditable if it reconciles with the counters
    the Fig. 5-9 experiments report."""

    def test_result_carries_root_span(self, movie_run):
        tracer, result = movie_run
        assert result.trace is not None
        assert result.trace.name == "greedy"
        assert result.trace in tracer.spans

    def test_tuner_calls_match_tune_spans(self, movie_run):
        tracer, result = movie_run
        successful_tunes = [s for s in find_spans(tracer, "advisor.tune")
                            if "optimizer_calls" in s.attributes]
        assert result.counters.tuner_calls == len(successful_tunes)

    def test_optimizer_calls_match_span_totals(self, movie_run):
        tracer, result = movie_run
        tunes = find_spans(tracer, "advisor.tune")
        assert result.counters.optimizer_calls == \
            sum_attribute(tunes, "optimizer_calls")

    def test_access_path_counts_ride_on_tune_spans(self, movie_run):
        """Every optimizer call plans at least one SELECT; only a SELECT
        that had to be costed asks for access paths."""
        tracer, result = movie_run
        tunes = [s for s in find_spans(tracer, "advisor.tune")
                 if "optimizer_calls" in s.attributes]
        for span in tunes:
            planned = span.attributes["selects_planned"]
            select_costings = span.attributes["selects_costed"]
            lookups = span.attributes["access_path_lookups"]
            costed = span.attributes["access_paths_costed"]
            assert planned >= span.attributes["optimizer_calls"] >= 0
            assert 0 <= select_costings <= planned
            assert lookups >= select_costings
            assert (lookups > 0) == (select_costings > 0)
            assert costed >= 0 and (lookups > 0 or costed == 0)
        assert sum_attribute(tunes, "selects_planned") >= \
            result.counters.optimizer_calls
        # Computed once: far fewer costings than requests. (Access
        # paths are asked for by a costing only, so on a workload this
        # small nearly every one asked for is new.)
        assert 2 * sum_attribute(tunes, "selects_costed") < \
            sum_attribute(tunes, "selects_planned")
        assert sum_attribute(tunes, "access_paths_costed") <= \
            sum_attribute(tunes, "access_path_lookups")

    def test_tune_span_sums_are_the_tables_own_counters(self):
        """One advisor on one database: what its spans add up to is what
        the database's ``AccessPaths`` counted. Every tune forgets its
        SELECTs' choices when it ends, so the second costs them again,
        as the first did."""
        from repro.mapping import derive_schema, hybrid_inlining
        from repro.physdesign import IndexTuningAdvisor
        from repro.search import (build_stats_only_database,
                                  translate_workload)

        tree = movie_schema()
        stats = collect_statistics(tree, generate_movies(250, seed=13))
        workload = Workload.from_strings("w", [
            "//movie/year", '//movie[year >= "1990"]/title'])
        schema = derive_schema(hybrid_inlining(tree))
        db = build_stats_only_database(schema, stats)
        tracer = Tracer()
        advisor = IndexTuningAdvisor(db, tracer=tracer)
        sql = translate_workload(workload, schema)
        for _ in range(2):
            advisor.tune(sql)
        tunes = find_spans(tracer, "advisor.tune")
        paths = db.access_paths
        assert len(tunes) == 2 and tunes[1].attributes["selects_costed"] \
            == tunes[0].attributes["selects_costed"] > 0
        assert paths.counters() == {
            "selects_planned": paths.selects_planned,
            "selects_costed": paths.selects_costed,
            "access_path_lookups": paths.lookups,
            "access_paths_costed": paths.costed}
        for name, counted in paths.counters().items():
            assert sum_attribute(tunes, name) == counted > 0

    def test_worker_tune_spans_carry_access_path_counts(self):
        """The counts are deltas taken where the tune ran, so a pool
        worker's come back with its grafted spans."""
        tree = movie_schema()
        doc = generate_movies(250, seed=13)
        stats = collect_statistics(tree, doc)
        workload = Workload.from_strings("w", [
            "//movie/year", '//movie[year >= "1990"]/title'])
        tracer = Tracer()
        result = GreedySearch(tree, workload, stats, tracer=tracer,
                              jobs=2).run()
        tunes = [s for s in find_spans(tracer, "advisor.tune")
                 if "optimizer_calls" in s.attributes]
        assert len(tunes) == result.counters.tuner_calls
        assert sum_attribute(tunes, "selects_planned") >= \
            sum_attribute(tunes, "optimizer_calls") \
            == result.counters.optimizer_calls
        assert sum_attribute(tunes, "selects_planned") >= \
            sum_attribute(tunes, "selects_costed") > 0
        assert sum_attribute(tunes, "access_path_lookups") > 0
        assert sum_attribute(tunes, "access_paths_costed") > 0

    def test_mappings_evaluated_match_evaluate_spans(self, movie_run):
        tracer, result = movie_run
        spans = (find_spans(tracer, "evaluate.exact")
                 + find_spans(tracer, "evaluate.partial"))
        assert result.counters.mappings_evaluated == len(spans)

    def test_cache_hits_match_events(self, movie_run):
        tracer, result = movie_run
        hits = [event for span in iter_spans(tracer)
                for event in span.events if event.name == "cache_hit"]
        assert result.counters.cache_hits == len(hits)

    def test_derived_costs_match_partial_spans(self, movie_run):
        tracer, result = movie_run
        partials = find_spans(tracer, "evaluate.partial")
        assert result.counters.derived_query_costs == \
            sum_attribute(partials, "reused")

    def test_database_estimate_metric_counted(self, movie_run):
        tracer, result = movie_run
        estimates = tracer.metrics("database").get("estimate_calls")
        assert estimates > 0
        assert estimates >= result.counters.optimizer_calls

    def test_disabled_search_tracing_attaches_nothing(self):
        tree = movie_schema()
        doc = generate_movies(200, seed=12)
        stats = collect_statistics(tree, doc)
        workload = Workload.from_strings("w", ["//movie/year"])
        result = GreedySearch(tree, workload, stats).run()
        assert result.trace is None

    def test_trace_structure_is_reproducible(self):
        tree = movie_schema()
        doc = generate_movies(250, seed=13)
        stats = collect_statistics(tree, doc)
        renders = []
        for _ in range(2):
            workload = Workload.from_strings("w", [
                "//movie/year", "//movie/avg_rating"])
            tracer = Tracer()
            GreedySearch(tree, workload, stats, tracer=tracer).run()
            renders.append(render_tree(tracer, include_times=False))
        assert renders[0] == renders[1]


# ----------------------------------------------------------------------
# Concurrency: registry counters and histogram snapshots under load
# ----------------------------------------------------------------------


class TestMetricRegistryConcurrency:
    """Regression tests for the serve-pool metrics races.

    ``MetricRegistry.incr`` used to be an unlocked dict
    read-modify-write; hammered from worker threads (exactly how the
    query service calls it) increments were lost. The tiny switch
    interval forces thread preemption inside the read-modify-write
    window, so the old code fails this test in well under a second.
    """

    @pytest.fixture(autouse=True)
    def _fast_preemption(self):
        import sys
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(previous)

    def test_incr_hammer_loses_no_increments(self):
        import threading
        registry = MetricRegistry("hammer")
        threads_n, per_thread = 8, 5000

        def worker() -> None:
            for _ in range(per_thread):
                registry.incr("requests")
                registry.incr("bytes", 3)

        threads = [threading.Thread(target=worker)
                   for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.get("requests") == threads_n * per_thread
        assert registry.get("bytes") == threads_n * per_thread * 3

    def test_incr_survives_a_forced_preemption_window(self):
        """The deterministic form of the hammer: a scheduling point is
        injected *inside* the read-modify-write window (``dict.get``
        yields the GIL before the store). The unlocked ``incr`` loses
        ~90% of the increments here; the locked one loses none."""
        import threading
        import time

        class YieldingDict(dict):
            def get(self, *args):
                value = super().get(*args)
                time.sleep(0)  # explicit preemption point mid-RMW
                return value

        registry = MetricRegistry("hammer")
        registry.counters = YieldingDict()
        threads_n, per_thread = 8, 300

        def worker() -> None:
            for _ in range(per_thread):
                registry.incr("requests")

        threads = [threading.Thread(target=worker)
                   for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.get("requests") == threads_n * per_thread

    def test_histogram_get_or_create_is_single(self):
        import threading
        registry = MetricRegistry("hammer")
        seen = []
        barrier = threading.Barrier(4)

        def worker() -> None:
            barrier.wait()
            seen.append(registry.histogram("lat"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(h) for h in seen}) == 1

    def test_snapshot_is_internally_consistent_under_load(self):
        """`snapshot` must be computed from ONE locked copy of the
        state. All observations are exactly 0.25 s (a binary-exact
        value), so any consistent snapshot has ``mean == 0.25``; the
        old field-by-field reads tore (``total`` bumped before
        ``count``) and produced impossible means."""
        import threading
        from repro.obs import LatencyHistogram
        histogram = LatencyHistogram("t")
        stop = threading.Event()

        def worker() -> None:
            while not stop.is_set():
                histogram.observe(0.25)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(3000):
                snapshot = histogram.snapshot()
                if snapshot["count"]:
                    assert snapshot["mean"] == 0.25, snapshot
                    assert snapshot["p99"] <= snapshot["max"]
                mean = histogram.mean
                assert mean in (0.0, 0.25)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert histogram.count == sum(
            c for _, c in histogram.nonzero_buckets())
