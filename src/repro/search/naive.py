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

from pathlib import Path

from ..errors import MappingError, SearchError
from ..mapping import (CollectedStats, Mapping, enumerate_transformations,
                       hybrid_inlining)
from ..obs import NullTracer, Tracer, get_tracer
from ..resilience import (CheckpointStore, load_search_state,
                          note_suppressed, save_search_state)
from ..workload import Workload
from ..xsd import SchemaTree
from .evaluator import (EvaluatedMapping, MappingEvaluator, check_fits,
                        check_rewrite, mapping_digest, problem_digest)
from .result import DesignResult, SearchCounters, timed_search


class NaiveGreedySearch:
    """Exhaustive-per-round greedy over the full transformation space."""

    algorithm = "naive-greedy"

    def __init__(self, tree: SchemaTree, workload: Workload,
                 collected: CollectedStats,
                 storage_bound: int | None = None,
                 base_mapping: Mapping | None = None,
                 default_split_count: int = 5,
                 max_rounds: int = 25,
                 include_subsumed: bool = True,
                 tracer: Tracer | NullTracer | None = None,
                 jobs: int | None = None,
                 checkpoint: CheckpointStore | str | Path | None = None,
                 checkpoint_every: int = 1,
                 resume: bool = False):
        self.tree = tree
        self.workload = workload
        self.collected = collected
        self.storage_bound = storage_bound
        self.base_mapping = base_mapping or hybrid_inlining(tree)
        self.default_split_count = default_split_count
        self.max_rounds = max_rounds
        # include_subsumed=False gives the intermediate Fig. 7 variant:
        # the naive per-round enumeration, restricted to non-subsumed
        # transformations (subsumed-pruning without the other rules).
        self.include_subsumed = include_subsumed
        self.tracer = tracer if tracer is not None else get_tracer()
        self.jobs = jobs
        if isinstance(checkpoint, (str, Path)):
            checkpoint = CheckpointStore(checkpoint, tracer=self.tracer)
        self.checkpoint = checkpoint
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.resume = resume
        self.counters = SearchCounters()

    def run(self) -> DesignResult:
        return timed_search(self, self._run)

    def _run(self) -> DesignResult:
        # Naive-Greedy does not deduplicate mappings: the cache is off.
        evaluator = MappingEvaluator(self.workload, self.collected,
                                     self.storage_bound, use_cache=False,
                                     counters=self.counters,
                                     tracer=self.tracer, jobs=self.jobs)
        try:
            return self._run_with(evaluator)
        finally:
            evaluator.close()

    def problem_key(self) -> str:
        """Everything that must match for a checkpoint to be resumable
        (see docs/resilience.md)."""
        settings = (self.default_split_count, self.max_rounds,
                    self.include_subsumed)
        return "|".join([
            problem_digest(self.workload, self.collected, self.storage_bound),
            mapping_digest(self.base_mapping), repr(settings)])

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
                transformations = enumerate_transformations(
                    current.mapping,
                    include_subsumed=self.include_subsumed,
                    default_split_count=self.default_split_count)
                enumerated = 0
                work: list[tuple[object, Mapping]] = []
                for transformation in transformations:
                    enumerated += 1
                    self.counters.transformations_searched += 1
                    try:
                        mapping = transformation.apply(current.mapping)
                    except MappingError as exc:
                        note_suppressed(exc, "naive.apply", self.tracer)
                        continue
                    work.append((transformation, mapping))
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
        return DesignResult(
            algorithm=self.algorithm,
            workload=self.workload,
            mapping=current.mapping,
            schema=current.schema,
            configuration=current.tuning.configuration,
            sql_queries=current.sql_queries,
            estimated_cost=current.total_cost,
            counters=self.counters,
            rounds=rounds,
            applied=applied,
        )
