"""The metric registry: every name the spine reports, in one table.

Three groups:

* ``GATE`` — the end-to-end metrics of ``BENCHMARK.json``. The driver
  contract wants every gated metric from every workload, so these are
  defined over a workload's *operation* (a loaded row for ``ingest``, a
  finished search for ``advise``, a verified request for ``serve_*``).
* ``NAMED`` — the same measurements (and a few more) under the names
  and units the issue gave them, each only on the workloads where it
  means something. Printed by the default command and judged by
  ``--compare``; not in ``BENCHMARK.json``.
* ``LAYERS`` — per-layer metrics from the traced pass (no bound).

``test_spine.py`` checks that ``BENCHMARK.json`` is exactly the
projection of ``GATE`` and ``LAYERS``.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("ingest", "advise", "serve_point", "serve_coldplan",
             "serve_scan")
SERVE = ("serve_point", "serve_coldplan", "serve_scan")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "lower" | "higher"
    bound: float | None = None       # None: reported, never judged
    workloads: tuple[str, ...] = WORKLOADS
    note: str = ""                   # definition, or what it should move
    #: How the value scales with machine speed: +1 a time, -1 a rate,
    #: 0 neither. End-to-end metrics with a non-zero power are reported
    #: at reference machine speed (workloads.Run.metrics).
    speed_power: int = 0


GATE = (
    Metric("setup_s", "s", "lower", 0.25, note=(
        "generation, serialisation, design search/advice and service "
        "start-up done before timing (median of the set-up repeats)"),
        speed_power=1),
    Metric("peak_rss_mb", "MB", "lower", 0.20,
           note="ru_maxrss of the workload's own process"),
    Metric("ops_per_s", "1/s", "higher", 0.25, note=(
        "ingest: rows loaded / median ingest wall time; advise: searches "
        "in the suite / advise_s; serve_point, serve_coldplan: qps; "
        "serve_scan: qps / queries in the workload (passes per second)"),
        speed_power=-1),
    Metric("p50_ms", "ms", "lower", 0.25, note=(
        "median wall time of one repeat unit: a whole-file ingest, one "
        "GreedySearch.run(), one request (median over slices of the "
        "slice median), on serve_scan one pass over the workload's "
        "queries"), speed_power=1),
    Metric("cpu_us_per_op", "us", "lower", 0.25, speed_power=1,
           note="process CPU time over the measured phase / operations"),
)

NAMED = (
    Metric("failed_share", "ratio", "lower", 0.0,
           note="failed, refused or wrong / attempted"),
    Metric("ingest_rows_per_s", "rows/s", "higher", 0.25, ("ingest",),
           speed_power=-1),
    Metric("ingest_s", "s", "lower", 0.25, ("ingest",), speed_power=1),
    Metric("storage_amplification", "ratio", "lower", 0.0,
           ("ingest", "serve_scan"),
           "database pages x page size / XML bytes; repeats exactly"),
    Metric("advise_s", "s", "lower", 0.25, ("advise",),
           "sum over the suite of the median GreedySearch.run() time", 1),
    Metric("advise_est_cost", "model-cost", "lower", 0.0, ("advise",),
           "summed DesignResult.estimated_cost; never beside seconds"),
    Metric("qps", "req/s", "higher", 0.25, SERVE, speed_power=-1),
    Metric("p95_ms", "ms", "lower", 0.25, SERVE,
           "median over slices of the slice p95", 1),
    Metric("cpu_us_per_req", "us", "lower", 0.25, SERVE, speed_power=1),
    Metric("workload_ms", "ms", "lower", 0.25, ("serve_scan",),
           "weighted sum of per-query median latency, joint design", 1),
    Metric("design_speedup", "ratio", "higher", 0.15, ("serve_scan",),
           "baseline workload_ms / joint workload_ms"),
)


def _layer(name: str, unit: str, better: str, note: str) -> Metric:
    return Metric(name, unit, better, None, WORKLOADS, note)


_INGEST = "ingest_rows_per_s on ingest"
_ADVISE = "advise_s on advise; setup_s on serve_scan"
_COLD = "qps, p50_ms on serve_coldplan; ~nothing on serve_point"
_SERVE = ("qps, p50_ms, p95_ms, cpu_us_per_req on serve_point (most) and "
          "serve_coldplan; < 10 % on serve_scan")
_TRUST = "none - says whether to trust the run"

LAYERS = (
    _layer("xmlkit.parse_s", "s", "lower", _INGEST + "; peak_rss_mb"),
    _layer("xmlkit.parse_mb_per_s", "MB/s", "higher", _INGEST),
    _layer("xmlkit.elements", "count", "lower", "exact count"),
    _layer("xsd.validate_s", "s", "lower", _INGEST),
    _layer("mapping.stats_s", "s", "lower", _INGEST),
    _layer("mapping.derive_schema_s", "s", "lower", _INGEST),
    _layer("mapping.shred_s", "s", "lower",
           _INGEST + "; setup_s on serve_*"),
    _layer("mapping.shred_rows_per_s", "rows/s", "higher", _INGEST),
    _layer("mapping.rows", "count", "lower", "exact count"),
    _layer("backends.load_s", "s", "lower", _INGEST),
    _layer("backends.insert_s", "s", "lower", "load - shred; " + _INGEST),
    _layer("backends.apply_configuration_s", "s", "lower", _INGEST),
    _layer("backends.db_bytes", "B", "lower", "storage_amplification"),
    _layer("backends.storage_amplification", "ratio", "lower",
           "storage_amplification on ingest, serve_scan"),
    _layer("backends.execute_us", "us", "lower",
           "workload_ms, qps on serve_scan (little on serve_point)"),
    _layer("backends.rows_per_req", "count", "lower", "as execute_us"),
    _layer("search.greedy_s", "s", "lower", _ADVISE),
    _layer("search.est_cost", "model-cost", "lower",
           "advise_est_cost; design_speedup"),
    _layer("search.mappings_evaluated", "count", "lower", _ADVISE),
    _layer("search.transformations_searched", "count", "lower", _ADVISE),
    _layer("search.cache_hits", "count", "higher", _ADVISE),
    _layer("search.derived_query_costs", "count", "higher", _ADVISE),
    _layer("search.rounds", "count", "lower", _ADVISE),
    _layer("physdesign.tuner_calls", "count", "lower", _ADVISE),
    _layer("physdesign.advise_s", "s", "lower",
           "advise_s; the design_speedup baseline"),
    _layer("engine.optimizer_calls", "count", "lower", _ADVISE),
    _layer("engine.estimate_us", "us", "lower", "advise_s on advise"),
    _layer("xpath.parse_us", "us", "lower", _COLD),
    _layer("translate.translate_us", "us", "lower", _COLD),
    _layer("sqlast.render_us", "us", "lower",
           "qps on every serve_* (rendered per request)"),
    _layer("serve.startup_s", "s", "lower", "setup_s on serve_*"),
    _layer("serve.closed_qps", "req/s", "higher",
           "qps, from the untraced slices of the traced pass"),
    _layer("serve.closed_p50_ms", "ms", "lower", "as closed_qps"),
    _layer("serve.closed_p95_ms", "ms", "lower", "p95_ms"),
    _layer("serve.admit_queue_us", "us", "lower", _SERVE),
    _layer("serve.plan_us", "us", "lower", _COLD),
    _layer("serve.return_us", "us", "lower", _SERVE),
    _layer("serve.overhead_us", "us", "lower", _SERVE),
    _layer("serve.plan_cache_hit_rate", "ratio", "higher", _COLD),
    _layer("serve.plan_cache_evictions", "count", "lower", _COLD),
    _layer("serve.errors", "count", "lower", "failed_share"),
    _layer("serve.shed", "count", "lower", "open-loop arms only"),
    _layer("serve.retries", "count", "lower", "p95_ms"),
    _layer("serve.timeouts", "count", "lower", "failed_share"),
    _layer("serve.contended_qps", "req/s", "higher",
           "2 closed-loop clients; moves more than qps when a lock or "
           "the GIL is freed"),
    _layer("serve.open_lo_rate", "req/s", "higher", "the lower fixed rate"),
    _layer("serve.open_lo_p50_ms", "ms", "lower", _SERVE),
    _layer("serve.open_lo_p95_ms", "ms", "lower", _SERVE),
    _layer("serve.open_lo_p99_ms", "ms", "lower", _SERVE),
    _layer("serve.open_hi_rate", "req/s", "higher", "the higher fixed rate"),
    _layer("serve.open_hi_p50_ms", "ms", "lower", _SERVE),
    _layer("serve.open_hi_p95_ms", "ms", "lower", _SERVE),
    _layer("serve.open_hi_p99_ms", "ms", "lower", _SERVE),
    _layer("serve.open_max_rate_ok", "req/s", "higher",
           "highest listed rate with open p95 <= 5 ms, nothing shed and "
           "no growing backlog (0: neither)"),
    _layer("bench.machine_speed", "ratio", "higher",
           "reference kernel time / its median time in between the "
           "measured work; every end-to-end time is scaled by it; "
           + _TRUST),
    _layer("bench.trace_overhead_share", "ratio", "lower", _TRUST),
    _layer("bench.span_coverage", "ratio", "higher",
           "child spans / bench.request time; " + _TRUST),
    _layer("bench.loadgen_late_ms", "ms", "lower", _TRUST),
    _layer("bench.slices_outlier", "count", "lower", _TRUST),
    _layer("bench.datasets_generate_s", "s", "lower", _TRUST),
    _layer("bench.serialize_s", "s", "lower", _TRUST),
    _layer("bench.oracle_s", "s", "lower", _TRUST),
)

BY_NAME = {m.name: m for m in GATE + NAMED + LAYERS}


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must say about the metrics."""
    return {
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in GATE],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in LAYERS],
    }
