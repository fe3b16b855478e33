"""The benchmark spine's calls into the library, made where it makes them.

``benchmarks/spine`` measures the library through its public names only,
but tier-1 collects ``tests/`` alone: a renamed function, keyword or
field would pass here and break the benchmark run. This module imports
the spine's ``workloads`` and drives its own helpers (the call sites
themselves, not copies of them) on tiny documents, then checks the
attributes and keys the spine reads off what comes back.
"""

import os
import sys
from collections import Counter
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parents[1] / "benchmarks" / "spine"
sys.path.insert(0, str(SPINE))

import spans  # noqa: E402
import workloads  # noqa: E402

from repro.datasets import dblp_schema, generate_dblp  # noqa: E402
from repro.mapping import (collect_statistics, derive_schema,  # noqa: E402
                           hybrid_inlining)
# ``loadgen.open_arm`` imports it when it runs
from repro.serve import ServiceOverloaded  # noqa: E402,F401
from repro.workload import Workload, WorkloadGenerator  # noqa: E402


@pytest.fixture
def run(tmp_path):
    """A smoke-sized spine run; it pins the process to one CPU, so the
    CPUs it had are given back afterwards."""
    cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else None)
    spine_run = workloads.Run(seed=7, seconds=0.0, traced=False, smoke=True,
                              tmp=tmp_path)
    yield spine_run
    if cpus is not None:
        workloads.pin(cpus)


@pytest.fixture(scope="module")
def dblp():
    tree = dblp_schema()
    doc = generate_dblp(60, seed=7)
    return tree, doc, collect_statistics(tree, doc)


def test_the_ingest_workload_runs(run):
    # parse_file, validate, collect_statistics, derive_schema on
    # hybrid_inlining, SQLiteBackend(path).load(..., batch_size=...),
    # apply_configuration, shred_typed_batches, count_elements and
    # backend.execute_sql, each called by the workload itself
    workloads.ingest(run)
    assert run.failed == 0 and run.attempted > 0, run.problems
    for name in ("ops_per_s", "p50_ms", "cpu_us_per_op", "xmlkit.elements",
                 "mapping.rows", "backends.db_bytes",
                 "backends.storage_amplification"):
        assert run.values[name][0] > 0, name
    for name in ("xmlkit.parse_s", "xsd.validate_s", "mapping.stats_s",
                 "backends.load_s", "backends.apply_configuration_s"):
        assert run.samples[name], name


def test_the_search_and_the_advisor_take_the_spines_arguments(run, dblp):
    tree, doc, stats = dblp
    suite = WorkloadGenerator(tree, stats, seed=workloads.SHAPE_SEED
                              ).standard_suite(2)
    # GreedySearch(tree, workload, stats, jobs=1, cache=None).run()
    result = workloads.greedy(tree, suite[0], stats)
    workloads.search_metrics(run, [result])
    assert result.estimated_cost > 0 and result.schema.signature()
    assert result.mapping is not None and result.configuration is not None
    list(result.applied)    # serve_scan records the applied rewrites
    # parse_xpath, Translator.translate, render_query, the what-if
    # database's estimate and IndexTuningAdvisor(db).tune(workload)
    schema = derive_schema(hybrid_inlining(tree))
    xpaths = [str(q.query) for q in suite[0].queries]
    workloads.query_census(run, tree, schema, stats, xpaths)
    assert run.samples["physdesign.advise_s"]
    census = Workload.from_strings("census", xpaths)
    assert len(census.queries) == len(xpaths)


def test_the_service_answers_as_the_spine_reads_it(run, dblp):
    tree, doc, stats = dblp
    schema = derive_schema(hybrid_inlining(tree))
    # QueryService(schema, doc, configuration, workers=WORKERS)
    service = workloads.start_service(run, schema, doc,
                                      workloads.POINT_CONFIGURATION)
    try:
        assert workloads.WORKERS == 2
        data = workloads.Data("dblp", tree, doc, Path("unused"), 0)
        queries = workloads.point_queries(run, data, 4)
        xpaths = [q.xpath for q in queries]
        expected = workloads.verify(run, lambda x: service.serve(x).rows,
                                    queries, doc)
        assert run.failed == 0, run.problems
        assert service.submit(xpaths[0]).result(timeout=60).rows \
            == expected[0]
        assert isinstance(service.plan_cache.capacity, int)
        assert {"hits", "misses", "evictions"} <= set(
            service.plan_cache.stats())
        stats_now = service.stats()
        for field in ("errors", "shed", "retries", "timeouts"):
            assert getattr(stats_now, field) == 0, field

        # The traced pass's two instance shims must sit on the path of
        # every serve(): counted underneath, marked by the shims above.
        calls = Counter()
        for owner, name in ((service.plan_cache, "get_or_translate"),
                            (service.backend, "execute")):
            def counted(arg, inner=getattr(owner, name), name=name):
                calls[name] += 1
                return inner(arg)
            setattr(owner, name, counted)
        tracer = spans.ServeTrace(service, spans.Recorder())
        with tracer:
            for i, xpath in enumerate(xpaths):
                tracer._marks[:] = [0.0] * 4
                rows = service.serve(xpath).rows
                assert rows == expected[i]
                assert 0 < min(tracer._marks), "a shim did not fire"
                assert calls == {"get_or_translate": i + 1,
                                 "execute": i + 1}
        assert tracer.rows == sum(len(rows) for rows in expected)
    finally:
        service.close()
