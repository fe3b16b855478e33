"""Figs. 4, 5, 6 — Greedy vs. Naive-Greedy vs. Two-Step.

One run per (workload, algorithm) yields all three figures' data:

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

from ..obs import NULL_TRACER, Tracer, summarize
from ..search import ALGORITHMS, DesignResult, design_for
from ..workload import Workload
from .harness import DatasetBundle, measure_design, tuned_hybrid_baseline
from .reporting import format_series


@dataclass
class AlgorithmRun:
    """One (algorithm, workload) cell of the comparison."""

    algorithm: str
    workload_name: str
    result: DesignResult
    measured_cost: float
    normalized_cost: float     # vs. tuned hybrid inlining (Fig. 4)
    wall_time: float
    transformations: int
    trace_summary: str = ""    # per-phase breakdown (when traced)


@dataclass
class ComparisonResult:
    bundle_name: str
    runs: list[AlgorithmRun] = field(default_factory=list)
    #: workload name → measured cost of the tuned hybrid baseline
    baselines: dict[str, float] = field(default_factory=dict)

    def by_algorithm(self, algorithm: str) -> dict[str, AlgorithmRun]:
        return {r.workload_name: r for r in self.runs
                if r.algorithm == algorithm}

    # -- the three figures -------------------------------------------------
    def fig4(self) -> str:
        series = {}
        for algorithm in ALGORITHMS:
            cells = self.by_algorithm(algorithm)
            if cells:
                series[algorithm] = {
                    name: run.normalized_cost
                    for name, run in cells.items()}
        return format_series(
            f"Fig. 4 ({self.bundle_name}) — execution cost, normalized to "
            f"hybrid inlining", "workload", series)

    def fig5(self) -> str:
        twostep = self.by_algorithm("two-step")
        series = {}
        for algorithm in ALGORITHMS:
            cells = self.by_algorithm(algorithm)
            values = {}
            for name, run in cells.items():
                reference = twostep.get(name)
                if reference and reference.wall_time > 0:
                    values[name] = run.wall_time / reference.wall_time
            if values:
                series[algorithm] = values
        return format_series(
            f"Fig. 5 ({self.bundle_name}) — search time, normalized to "
            f"Two-Step", "workload", series)

    def fig6(self) -> str:
        series = {}
        for algorithm in ("greedy", "naive-greedy"):
            cells = self.by_algorithm(algorithm)
            if cells:
                series[algorithm] = {
                    name: float(run.transformations)
                    for name, run in cells.items()}
        return format_series(
            f"Fig. 6 ({self.bundle_name}) — transformations searched",
            "workload", series)

    def trace_report(self) -> str:
        """Per-run span summaries (empty unless run with ``trace=True``).

        This is what turns the Fig. 5 wall-time ratios into auditable
        numbers: each run's advisor calls, optimizer calls, cache hit
        ratios, and per-phase times, side by side.
        """
        blocks = [
            f"trace — {self.bundle_name} / {run.algorithm} / "
            f"{run.workload_name}\n{run.trace_summary}"
            for run in self.runs if run.trace_summary]
        return "\n\n".join(blocks)


def compare_algorithms(bundle: DatasetBundle, workloads: list[Workload],
                       algorithms: tuple[str, ...] = tuple(ALGORITHMS),
                       naive_max_queries: int = 10,
                       naive_max_rounds: int = 6,
                       trace: bool = False,
                       backend: str = "engine") -> ComparisonResult:
    """Run the algorithms on each workload and measure their designs.

    With ``trace=True`` each run gets its own :class:`repro.obs.Tracer`
    and the run's aggregated span summary is kept on
    :attr:`AlgorithmRun.trace_summary` (see
    :meth:`ComparisonResult.trace_report`).

    ``backend`` selects what the Fig. 4 costs are measured on: the
    deterministic engine (default) or wall-clock SQLite seconds
    (``"sqlite"``). Either way the numbers are normalized to the tuned
    hybrid baseline measured on the *same* backend, so the figures stay
    comparable.
    """
    out = ComparisonResult(bundle_name=bundle.name)
    for workload in workloads:
        baseline = tuned_hybrid_baseline(bundle, workload, backend=backend)
        out.baselines[workload.name] = baseline
        for algorithm in algorithms:
            if algorithm == "naive-greedy" and \
                    len(workload) > naive_max_queries:
                continue  # the paper could not finish these either
            tracer = Tracer() if trace else NULL_TRACER
            options = ({"max_rounds": naive_max_rounds}
                       if algorithm == "naive-greedy" else {})
            result = design_for(algorithm, bundle.tree, workload,
                                bundle.stats, bundle.storage_bound, tracer,
                                **options)
            measured = measure_design(result, bundle, backend=backend)
            out.runs.append(AlgorithmRun(
                algorithm=algorithm,
                workload_name=workload.name,
                result=result,
                measured_cost=measured,
                normalized_cost=measured / max(baseline, 1e-9),
                wall_time=result.counters.wall_time,
                transformations=result.counters.transformations_searched,
                trace_summary=summarize(tracer) if trace else "",
            ))
    return out
