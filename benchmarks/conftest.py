"""Shared fixtures for the paper-reproduction benchmarks.

Scale knobs (environment variables):

* ``REPRO_BENCH_SCALE``   — publications/movies per data set (default 1200)
* ``REPRO_BENCH_QUERIES`` — queries per small workload (default 10)
* ``REPRO_BENCH_NAIVE``   — set to ``0`` to skip Naive-Greedy runs
* ``REPRO_BENCH_TRACE``   — set to ``0`` to disable span tracing

Tracing (docs/observability.md) is on by default: an ambient
:class:`repro.obs.Tracer` is installed around every benchmark and its
aggregated per-phase summary (advisor calls, optimizer calls, cache hit
ratios, time per phase) is printed after the test, so the Fig. 5/7/8/9
speed-up claims are auditable breakdowns rather than single wall-time
numbers.

At the defaults the eleven paper-shape files (Figs. 4-9, Table 1, the
three ablations and E0) take 2-2.5 min together with
``REPRO_BENCH_TRACE=0`` on a 2-CPU x86-64 machine; raising the scale
sharpens the ratios (the paper's ran at 100 MB) at the price of run
time. All benchmark output tables are printed uncaptured so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` records
the reproduced figures.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import DatasetBundle
from repro.obs import Tracer, set_tracer, summarize

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "1200"))
QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "10"))
RUN_NAIVE = os.environ.get("REPRO_BENCH_NAIVE", "1") != "0"
TRACE = os.environ.get("REPRO_BENCH_TRACE", "1") != "0"


@pytest.fixture(scope="session")
def dblp_bundle():
    return DatasetBundle.dblp(scale=SCALE)


@pytest.fixture(scope="session")
def movie_bundle():
    return DatasetBundle.movie(scale=SCALE)


@pytest.fixture
def emit(capsys):
    """Print a report table to the real terminal (uncaptured)."""
    def _emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)
    return _emit


@pytest.fixture(autouse=True)
def ambient_trace(request, capsys):
    """Trace every benchmark and attach the per-phase summary.

    Installs an ambient tracer (picked up by every search/advisor
    constructed without an explicit one) for the duration of the test
    and prints the aggregated span summary uncaptured afterwards.
    """
    if not TRACE:
        yield None
        return
    tracer = Tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(None)
    if tracer.spans:
        with capsys.disabled():
            print(f"\ntrace summary — {request.node.name}")
            print(summarize(tracer))


@pytest.fixture(scope="session")
def comparison_cache():
    """Figs. 4-6 share one expensive comparison run per data set."""
    return {}


def build_comparison(bundle, cache, emit=None):
    """Run (or fetch) the Fig. 4-6 comparison for one data set.

    When tracing is on, each (algorithm, workload) run is traced
    individually; pass ``emit`` to print the per-run trace report
    alongside the figure tables.
    """
    from repro.experiments import FIG4_VARIANTS, compare_algorithms

    if bundle.name not in cache:
        generator = bundle.workload_generator(seed=41)
        workloads = generator.standard_suite(QUERIES)
        if bundle.name == "DBLP":
            # The paper also runs 2x-size workloads on DBLP
            # (Naive-Greedy is skipped there, as in the paper).
            workloads += generator.standard_suite(QUERIES * 2)
        variants = {label: variant
                    for label, variant in FIG4_VARIANTS.items()
                    if RUN_NAIVE or label != "naive-greedy"}
        cache[bundle.name] = compare_algorithms(
            bundle, workloads, variants, naive_max_queries=QUERIES,
            trace=TRACE)
    result = cache[bundle.name]
    if emit is not None and TRACE:
        report = result.trace_report()
        if report:
            emit(report)
    return result
