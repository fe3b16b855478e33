"""Figs. 4, 5, 6 — Greedy vs. Naive-Greedy vs. Two-Step.

One run per (workload, variant) yields all three figures' data:

* Fig. 4: workload execution cost of the recommended design, measured on
  loaded data and normalized to the tuned hybrid-inlining baseline;
* Fig. 5: advisor running time, normalized to Two-Step;
* Fig. 6: number of transformations searched.

Mirroring the paper, Naive-Greedy is only run on the smaller workloads
(it "did not stop after five days" on the 20-query DBLP workloads; here
it is merely orders of magnitude slower, so large-workload naive runs
are skipped by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import Tracer, summarize
from ..search import design_for
from ..workload import Workload
from .harness import DatasetBundle, measure_design, tuned_hybrid_baseline
from .reporting import format_series

#: ``{label: (algorithm, options)}`` — the searches Figs. 4-6 compare,
#: Naive-Greedy capped at six rounds.
FIG4_VARIANTS = {
    "greedy": ("greedy", {}),
    "naive-greedy": ("naive-greedy", {"max_rounds": 6}),
    "two-step": ("two-step", {}),
}


@dataclass
class AlgorithmRun:
    """One (variant, workload) cell of the comparison."""

    variant: str
    workload_name: str
    measured_cost: float
    normalized_cost: float     # vs. tuned hybrid inlining (Fig. 4)
    wall_time: float
    transformations: int
    trace_summary: str = ""    # per-phase breakdown (when traced)


@dataclass
class ComparisonResult:
    bundle_name: str
    variants: list[str] = field(default_factory=list)
    runs: list[AlgorithmRun] = field(default_factory=list)

    def by_variant(self, label: str) -> dict[str, AlgorithmRun]:
        return {r.workload_name: r for r in self.runs if r.variant == label}

    def series(self, field_name: str, labels: list[str] | None = None,
               per: str | None = None) -> dict[str, dict[str, float]]:
        """``{label: {workload: value}}`` of one :class:`AlgorithmRun`
        field (``normalized_cost``, ``wall_time``, ``transformations``)
        for ``labels`` (default: every variant, in table order).

        With ``per``, each value is divided by variant ``per``'s on the
        same workload; workloads ``per`` did not run are left out, and
        so is a label left with no values.
        """
        reference = self.by_variant(per) if per else {}
        out: dict[str, dict[str, float]] = {}
        for label in labels or self.variants:
            values = {}
            for name, run in self.by_variant(label).items():
                value = float(getattr(run, field_name))
                if per:
                    if name not in reference:
                        continue
                    value /= max(getattr(reference[name], field_name), 1e-9)
                values[name] = value
            if values:
                out[label] = values
        return out

    # -- the three figures -------------------------------------------------
    def fig4(self) -> str:
        return format_series(
            f"Fig. 4 ({self.bundle_name}) — execution cost, normalized to "
            f"hybrid inlining", "workload", self.series("normalized_cost"))

    def fig5(self) -> str:
        return format_series(
            f"Fig. 5 ({self.bundle_name}) — search time, normalized to "
            f"Two-Step", "workload", self.series("wall_time", per="two-step"))

    def fig6(self) -> str:
        return format_series(
            f"Fig. 6 ({self.bundle_name}) — transformations searched",
            "workload", self.series("transformations",
                                    ["greedy", "naive-greedy"]))

    def trace_report(self) -> str:
        """Per-run span summaries (empty unless run with ``trace=True``).

        This is what turns the Fig. 5 wall-time ratios into auditable
        numbers: each run's advisor calls, optimizer calls, cache hit
        ratios, and per-phase times, side by side.
        """
        blocks = [
            f"trace — {self.bundle_name} / {run.variant} / "
            f"{run.workload_name}\n{run.trace_summary}"
            for run in self.runs if run.trace_summary]
        return "\n\n".join(blocks)


def compare_algorithms(bundle: DatasetBundle, workloads: list[Workload],
                       variants: dict[str, tuple[str, dict]] = FIG4_VARIANTS,
                       naive_max_queries: int = 10,
                       trace: bool = False,
                       backend: str = "engine") -> ComparisonResult:
    """Run each variant on each workload and measure its design.

    ``variants`` maps a label to ``(algorithm, options)`` for
    :func:`repro.search.design_for` (Figs. 7-9 have tables of their
    own in :mod:`repro.experiments.ablations`). Naive-Greedy is skipped
    on workloads longer than ``naive_max_queries``.

    With ``trace=True`` each run gets its own :class:`repro.obs.Tracer`,
    summarized on :attr:`AlgorithmRun.trace_summary`; otherwise the
    runs report to the ambient tracer.

    ``backend`` selects what the costs are measured on: the
    deterministic engine (default) or wall-clock SQLite seconds
    (``"sqlite"``). Either way the numbers are normalized to the tuned
    hybrid baseline measured on the *same* backend, so the figures stay
    comparable.
    """
    out = ComparisonResult(bundle_name=bundle.name, variants=list(variants))
    for workload in workloads:
        baseline = tuned_hybrid_baseline(bundle, workload, backend=backend)
        for label, (algorithm, options) in variants.items():
            if algorithm == "naive-greedy" and \
                    len(workload) > naive_max_queries:
                continue  # the paper could not finish these either
            tracer = Tracer() if trace else None
            result = design_for(algorithm, bundle.tree, workload,
                                bundle.stats, bundle.storage_bound, tracer,
                                **options)
            measured = measure_design(result, bundle, backend=backend)
            out.runs.append(AlgorithmRun(
                variant=label,
                workload_name=workload.name,
                measured_cost=measured,
                normalized_cost=measured / max(baseline, 1e-9),
                wall_time=result.counters.wall_time,
                transformations=result.counters.transformations_searched,
                trace_summary=summarize(tracer) if tracer is not None else "",
            ))
    return out
