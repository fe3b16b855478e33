"""The Naive-Greedy baseline (paper Section 5.1.1).

A straightforward extension of the logical-design greedy of [5], [18] to
the joint space: each round it enumerates *every* applicable
transformation (subsumed ones included), calls the physical design tool
for each resulting mapping, applies the best, and stops when no
transformation reduces the estimated workload cost.

No candidate selection, no candidate merging, no cost derivation, no
duplicate pruning — this is the algorithm whose running time the paper
reports as "more than a day" on DBLP, against which Greedy's two-orders-
of-magnitude speed-up is measured (Figs. 5 and 6).
"""

from __future__ import annotations

from ..errors import SearchError
from ..resilience import load_search_state, save_search_state
from .base import Search
from .evaluator import (EvaluatedMapping, MappingEvaluator, check_fits,
                        check_rewrite)
from .result import DesignResult


class NaiveGreedySearch(Search):
    """Exhaustive-per-round greedy over the full transformation space."""

    algorithm = "naive-greedy"
    # Naive-Greedy does not deduplicate mappings: the cache is off.
    use_cache = False

    def __init__(self, *args, default_split_count: int = 5,
                 include_subsumed: bool = True, **options):
        super().__init__(*args, **options)
        self.default_split_count = default_split_count
        # include_subsumed=False gives the intermediate Fig. 7 variant:
        # the naive per-round enumeration, restricted to non-subsumed
        # transformations (subsumed-pruning without the other rules).
        self.include_subsumed = include_subsumed

    def settings(self) -> tuple:
        return (self.default_split_count, self.include_subsumed)

    def _run_with(self, evaluator: MappingEvaluator) -> DesignResult:
        resumed = load_search_state(self, evaluator)
        if resumed is not None:
            rounds = resumed["rounds"]
            current = resumed["current"]
            applied = resumed["applied"]
        else:
            current = evaluator.evaluate(self.base_mapping)
            if current is None:
                check_fits(self.base_mapping, self.collected,
                           self.storage_bound)
                raise SearchError(
                    "base mapping is infeasible for the workload")
            applied = []
            rounds = 0
        while rounds < self.max_rounds:
            save_search_state(self, evaluator, rounds=rounds,
                              current=current, applied=applied)
            rounds += 1
            with self.tracer.span("round", index=rounds) as round_span:
                best: tuple[float, str, EvaluatedMapping] | None = None
                searched = self.counters.transformations_searched
                work = list(self._neighbours(
                    current.mapping, self.include_subsumed,
                    self.default_split_count, "naive.apply"))
                enumerated = self.counters.transformations_searched - searched
                evaluations = evaluator.evaluate_many(
                    [mapping for _, mapping in work])
                for (transformation, _), evaluated in zip(work, evaluations):
                    if evaluated is None:
                        continue
                    check_rewrite(str(transformation), current.schema,
                                  evaluated.schema, self.tracer)
                    if evaluated.total_cost < current.total_cost and \
                            (best is None or
                             evaluated.total_cost < best[0]):
                        best = (evaluated.total_cost, str(transformation),
                                evaluated)
                round_span.set("enumerated", enumerated)
                if best is None:
                    round_span.set("improved", False)
                    break
                _, name, evaluated = best
                current = evaluated
                applied.append(name)
                round_span.set("improved", True)
                round_span.set("winner", name)
                round_span.set("cost", evaluated.total_cost)
        return DesignResult.of(self.algorithm, self.workload, current,
                               self.counters, rounds, applied)
