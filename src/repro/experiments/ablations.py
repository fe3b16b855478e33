"""Figs. 7, 8, 9 — breakdown of the Greedy optimizations: the Figs. 4-6
comparison (:func:`repro.experiments.compare_algorithms`) run over a
table of variants, one switch flipped per variant.

* Fig. 7: speed-up from (a) not searching subsumed transformations and
  (b) all candidate-selection rules together, over Naive-Greedy, which
  enumerates and costs every applicable transformation each round (the
  straightforward extension of [5], [18]).
* Fig. 8: candidate merging — greedy vs. none vs. exhaustive — on
  quality (normalized to hybrid inlining) and search time (normalized
  to no merging).
* Fig. 9: cost derivation on vs. off — quality and search time.
"""

from __future__ import annotations

from .comparison import ComparisonResult
from .reporting import format_series

UNPRUNED = "naive-greedy"
SKIP_SUBSUMED = "naive-greedy, subsumed skipped"

FIG7_VARIANTS = {
    UNPRUNED: ("naive-greedy", {"include_subsumed": True, "max_rounds": 6}),
    SKIP_SUBSUMED: ("naive-greedy",
                    {"include_subsumed": False, "max_rounds": 6}),
    "greedy": ("greedy", {}),
}

FIG8_VARIANTS = {mode: ("greedy", {"merging": mode})
                 for mode in ("greedy", "none", "exhaustive")}

FIG9_VARIANTS = {
    "with derivation": ("greedy", {"use_cost_derivation": True}),
    "without derivation": ("greedy", {"use_cost_derivation": False}),
}


def fig7_table(comparison: ComparisonResult) -> str:
    def speedup(over: str) -> dict[str, float]:
        return comparison.series("wall_time", [UNPRUNED],
                                 per=over).get(UNPRUNED, {})
    return format_series(
        f"Fig. 7 ({comparison.bundle_name}) — candidate-selection speed-up",
        "workload", {"skip-subsumed speed-up": speedup(SKIP_SUBSUMED),
                     "all-rules speed-up": speedup("greedy")})


def fig8_tables(comparison: ComparisonResult) -> str:
    name = comparison.bundle_name
    return (format_series(
        f"Fig. 8a ({name}) — quality by merging strategy "
        f"(normalized to hybrid)", "workload",
        comparison.series("normalized_cost"))
        + "\n" + format_series(
            f"Fig. 8b ({name}) — search time by merging strategy "
            f"(normalized to no merging)", "workload",
            comparison.series("wall_time", per="none")))


def fig9_tables(comparison: ComparisonResult) -> str:
    name = comparison.bundle_name
    speedup = comparison.series("wall_time", ["without derivation"],
                                per="with derivation")
    return (format_series(
        f"Fig. 9a ({name}) — quality with/without cost derivation "
        f"(normalized to hybrid)", "workload",
        comparison.series("normalized_cost"))
        + "\n" + format_series(
            f"Fig. 9b ({name}) — cost-derivation speed-up", "workload",
            {"speed-up of derivation":
             speedup.get("without derivation", {})}))
