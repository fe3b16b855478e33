"""Figs. 7, 8, 9 — breakdown of the Greedy optimizations.

* Fig. 7: speed-up from (a) not searching subsumed transformations and
  (b) all candidate-selection rules together.
* Fig. 8: candidate merging strategies — greedy vs. none vs. exhaustive
  — on both quality (measured execution cost, normalized to hybrid
  inlining) and search time (normalized to no merging).
* Fig. 9: cost derivation on vs. off — quality and search time
  (normalized to derivation on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..search import design_for
from ..workload import Workload
from .harness import DatasetBundle, measure_design, tuned_hybrid_baseline
from .reporting import format_series


def _run_variant(bundle: DatasetBundle, workload: Workload,
                 **kwargs) -> tuple[float, float, int]:
    """(wall time, measured cost, transformations searched)."""
    result = design_for("greedy", bundle.tree, workload, bundle.stats,
                        bundle.storage_bound, **kwargs)
    measured = measure_design(result, bundle)
    return (result.counters.wall_time, measured,
            result.counters.transformations_searched)


# ----------------------------------------------------------------------
# Fig. 7 — candidate selection speed-up
# ----------------------------------------------------------------------


@dataclass
class Fig7Row:
    workload_name: str
    subsumed_speedup: float   # t(all incl. subsumed) / t(all non-subsumed)
    overall_speedup: float    # t(all incl. subsumed) / t(full Greedy)
    quality_full: float       # normalized cost of full Greedy
    quality_unpruned: float   # normalized cost with nothing pruned


def _run_naive_variant(bundle: DatasetBundle, workload: Workload,
                       include_subsumed: bool) -> tuple[float, float]:
    """(wall time, measured cost) of the per-round-enumeration search.

    The Fig. 7 baseline is the search *without* candidate selection:
    every applicable transformation is enumerated and costed each round,
    exactly the straightforward extension of [5], [18]. The
    ``include_subsumed=False`` variant applies only the
    subsumed-transformation pruning (the first Section 4.5 rule).
    """
    result = design_for("naive-greedy", bundle.tree, workload, bundle.stats,
                        bundle.storage_bound,
                        include_subsumed=include_subsumed, max_rounds=6)
    return result.counters.wall_time, measure_design(result, bundle)


def run_fig7(bundle: DatasetBundle,
             workloads: list[Workload]) -> list[Fig7Row]:
    rows: list[Fig7Row] = []
    for workload in workloads:
        baseline = tuned_hybrid_baseline(bundle, workload)
        t_all, cost_all = _run_naive_variant(bundle, workload,
                                             include_subsumed=True)
        t_nonsub, _ = _run_naive_variant(bundle, workload,
                                         include_subsumed=False)
        t_full, cost_full, _ = _run_variant(bundle, workload)
        rows.append(Fig7Row(
            workload_name=workload.name,
            subsumed_speedup=t_all / max(t_nonsub, 1e-9),
            overall_speedup=t_all / max(t_full, 1e-9),
            quality_full=cost_full / max(baseline, 1e-9),
            quality_unpruned=cost_all / max(baseline, 1e-9),
        ))
    return rows


def fig7_table(rows: list[Fig7Row], bundle_name: str) -> str:
    series = {
        "skip-subsumed speed-up": {
            r.workload_name: r.subsumed_speedup for r in rows},
        "all-rules speed-up": {
            r.workload_name: r.overall_speedup for r in rows},
    }
    return format_series(
        f"Fig. 7 ({bundle_name}) — candidate-selection speed-up",
        "workload", series)


# ----------------------------------------------------------------------
# Fig. 8 — merging strategies
# ----------------------------------------------------------------------


@dataclass
class Fig8Row:
    workload_name: str
    quality: dict[str, float] = field(default_factory=dict)  # normalized cost
    time: dict[str, float] = field(default_factory=dict)     # vs. no merging


MERGING_MODES = ("greedy", "none", "exhaustive")


def run_fig8(bundle: DatasetBundle,
             workloads: list[Workload]) -> list[Fig8Row]:
    rows: list[Fig8Row] = []
    for workload in workloads:
        baseline = tuned_hybrid_baseline(bundle, workload)
        row = Fig8Row(workload_name=workload.name)
        times: dict[str, float] = {}
        for mode in MERGING_MODES:
            wall, measured, _ = _run_variant(bundle, workload, merging=mode)
            row.quality[mode] = measured / max(baseline, 1e-9)
            times[mode] = wall
        reference = max(times["none"], 1e-9)
        row.time = {mode: times[mode] / reference for mode in MERGING_MODES}
        rows.append(row)
    return rows


def fig8_tables(rows: list[Fig8Row], bundle_name: str) -> str:
    quality = {mode: {r.workload_name: r.quality[mode] for r in rows}
               for mode in MERGING_MODES}
    time = {mode: {r.workload_name: r.time[mode] for r in rows}
            for mode in MERGING_MODES}
    return (format_series(
        f"Fig. 8a ({bundle_name}) — quality by merging strategy "
        f"(normalized to hybrid)", "workload", quality)
        + "\n" + format_series(
            f"Fig. 8b ({bundle_name}) — search time by merging strategy "
            f"(normalized to no merging)", "workload", time))


# ----------------------------------------------------------------------
# Fig. 9 — cost derivation
# ----------------------------------------------------------------------


@dataclass
class Fig9Row:
    workload_name: str
    quality_with: float
    quality_without: float
    speedup: float  # t(without) / t(with)


def run_fig9(bundle: DatasetBundle,
             workloads: list[Workload]) -> list[Fig9Row]:
    rows: list[Fig9Row] = []
    for workload in workloads:
        baseline = tuned_hybrid_baseline(bundle, workload)
        t_with, cost_with, _ = _run_variant(
            bundle, workload, use_cost_derivation=True)
        t_without, cost_without, _ = _run_variant(
            bundle, workload, use_cost_derivation=False)
        rows.append(Fig9Row(
            workload_name=workload.name,
            quality_with=cost_with / max(baseline, 1e-9),
            quality_without=cost_without / max(baseline, 1e-9),
            speedup=t_without / max(t_with, 1e-9),
        ))
    return rows


def fig9_tables(rows: list[Fig9Row], bundle_name: str) -> str:
    quality = {
        "with derivation": {r.workload_name: r.quality_with for r in rows},
        "without derivation": {
            r.workload_name: r.quality_without for r in rows},
    }
    speed = {"speed-up of derivation": {
        r.workload_name: r.speedup for r in rows}}
    return (format_series(
        f"Fig. 9a ({bundle_name}) — quality with/without cost derivation "
        f"(normalized to hybrid)", "workload", quality)
        + "\n" + format_series(
            f"Fig. 9b ({bundle_name}) — cost-derivation speed-up",
            "workload", speed))
