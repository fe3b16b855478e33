"""The paper's Greedy search algorithm (Fig. 3).

Pipeline:

1. **Candidate selection** (Section 4.5) splits workload-relevant
   transformations into split-type ``C2`` and merge-type ``C1``;
   subsumed transformations are never considered.
2. The initial mapping ``M0`` applies every split candidate to the base
   (hybrid-inlining) mapping. When ``M0`` is infeasible (over the
   storage bound, or a workload query it cannot translate) the search
   starts from the base mapping instead, and the splits join the
   candidate pool as forward moves.
3. **Candidate merging** (Section 4.7) replaces pairs of implicit-union
   candidates with merged ones before building ``M0``.
4. The greedy loop repeatedly applies the pool's candidate with the
   lowest resulting cost — costing each enumerated mapping through the
   physical design tool, with **cost derivation** (Section 4.8) reusing
   per-query costs where the rules allow — until no candidate improves
   the workload. The winning mapping of each round is re-costed without
   derivation, as the paper prescribes.

Ablation switches (used by the Fig. 8–9 experiments): ``merging``
('greedy' | 'none' | 'exhaustive') and ``use_cost_derivation``. Fig. 7's
unpruned baselines are Naive-Greedy variants
(``repro.experiments.FIG7_VARIANTS``), not Greedy switches.
"""

from __future__ import annotations

from ..errors import MappingError, SearchError
from ..mapping import (Mapping, RepetitionMerge, RepetitionSplit,
                       Transformation, TypeMerge, TypeSplit, UnionDistribute,
                       UnionFactorize)
from ..resilience import load_search_state, note_suppressed, save_search_state
from .base import Search
from .candidate_merging import CandidateMerger
from .candidate_selection import (CMAX, COVERAGE, CandidateSelector,
                                  CandidateSet, apply_splits)
from .cost_derivation import CostDerivation
from .evaluator import (EvaluatedMapping, MappingEvaluator, check_fits,
                        check_rewrite)
from .result import DesignResult


class GreedySearch(Search):
    """The paper's workload-driven joint logical+physical design search."""

    algorithm = "greedy"

    def __init__(self, *args, merging: str = "greedy",
                 use_cost_derivation: bool = True,
                 cache: None = None, **options):
        if merging not in ("greedy", "none", "exhaustive"):
            raise ValueError(f"unknown merging mode {merging!r}")
        if cache is not None:
            # ``cache=None`` is still accepted because the benchmark
            # spine passes it; a search remembers only within its run.
            raise TypeError("GreedySearch has no persistent cache; "
                            "pass cache=None or nothing")
        super().__init__(*args, **options)
        self.merging = merging
        self.derivation = CostDerivation(enabled=use_cost_derivation)

    def settings(self) -> tuple:
        # The §4.6 constants stay in the key: checkpoints already carry it.
        return (self.merging, self.derivation.enabled, CMAX, COVERAGE)

    def _run_with(self, evaluator: MappingEvaluator) -> DesignResult:
        resumed = load_search_state(self, evaluator)
        if resumed is not None:
            rounds = resumed["rounds"]
            current = resumed["current"]
            base_eval = resumed["base_eval"]
            pool: list[Transformation] = resumed["pool"]
            rejected_here: list[Transformation] = resumed["rejected_here"]
            applied: list[Transformation] = resumed["applied"]
            exact_rescue_used = resumed["exact_rescue_used"]
        else:
            with self.tracer.span("select_candidates") as span:
                candidates = self._select_candidates()
                span.set("splits", len(candidates.splits))
                span.set("merges", len(candidates.merges))
                span.set("implicit_unions", len(candidates.implicit_unions))
            with self.tracer.span("merge_candidates",
                                  mode=self.merging) as span:
                splits = self._merge_split_candidates(candidates)
                span.set("split_pool", len(splits))
            m0, applied_splits = apply_splits(self.base_mapping, splits)
            with self.tracer.span("evaluate_base"):
                base_eval = evaluator.evaluate(self.base_mapping)
            with self.tracer.span("evaluate_m0",
                                  splits_applied=len(applied_splits)):
                current = evaluator.evaluate(m0)
            pool = list(candidates.merges)
            if current is None:
                # M0 is infeasible (over the bound, or a query it
                # cannot translate): start from the unsplit base
                # mapping, with the selected splits as forward moves.
                current = base_eval
                pool += applied_splits
                applied_splits = []
            if current is None:
                check_fits(self.base_mapping, self.collected,
                           self.storage_bound)
                raise SearchError(
                    "base mapping is infeasible for the workload")

            for transformation in applied_splits:
                inverse = self._inverse(transformation)
                if inverse is not None:
                    pool.append(inverse)
            applied = list(applied_splits)
            rounds = 0
            exact_rescue_used = False
            # Candidates whose round win was overturned by the exact
            # re-check *against the current mapping*. Their derived costs
            # were only stale relative to this state, so they stay in the
            # pool and become eligible again as soon as the mapping
            # changes (dropping them permanently used to lose later-round
            # wins).
            rejected_here = []
        while rounds < self.max_rounds:
            # Snapshot at the round boundary: a kill anywhere inside the
            # round resumes from its start and replays it identically.
            save_search_state(
                self, evaluator, rounds=rounds, current=current,
                base_eval=base_eval, pool=pool,
                rejected_here=rejected_here, applied=applied,
                exact_rescue_used=exact_rescue_used)
            rounds += 1
            with self.tracer.span("round", index=rounds,
                                  pool=len(pool)) as round_span:
                eligible = [c for c in pool
                            if not any(c is r for r in rejected_here)]
                if rejected_here:
                    round_span.set("held_back", len(rejected_here))
                best: tuple[float, Transformation,
                            EvaluatedMapping] | None = None
                scored: list[tuple[float, Transformation]] = []
                costed = self._cost_candidates(eligible, current, evaluator)
                for candidate, evaluated in zip(eligible, costed):
                    if evaluated is None:
                        continue
                    scored.append((evaluated.total_cost, candidate))
                    if evaluated.total_cost < current.total_cost and \
                            (best is None or
                             evaluated.total_cost < best[0]):
                        best = (evaluated.total_cost, candidate, evaluated)
                round_span.set("scored", len(scored))
                if best is None and self.derivation.enabled and \
                        not exact_rescue_used and scored:
                    # Derivation is heuristic; before stopping,
                    # exact-check the lowest-derived-cost candidates so
                    # its noise cannot end the search early (keeps the
                    # paper's <= few-percent quality loss at a bounded
                    # extra cost).
                    exact_rescue_used = True
                    round_span.set("exact_rescue", True)
                    scored.sort(key=lambda pair: pair[0])
                    rescue = [candidate for _, candidate in scored[:3]]
                    for candidate, evaluated in zip(
                            rescue, self._cost_candidates(
                                rescue, current, evaluator, exact=True)):
                        if evaluated is None:
                            continue
                        if evaluated.total_cost < current.total_cost and \
                                (best is None or
                                 evaluated.total_cost < best[0]):
                            best = (evaluated.total_cost, candidate,
                                    evaluated)
                if best is None:
                    round_span.set("improved", False)
                    break
                _, winner, evaluated = best
                if self.derivation.enabled:
                    # Re-estimate the round winner without derivation
                    # (Fig. 3 line 18 / Section 4.8 closing remark).
                    with self.tracer.span("recheck_winner"):
                        exact = self._recheck_winner(evaluator, evaluated)
                    if exact is None or \
                            exact.total_cost >= current.total_cost:
                        round_span.set("improved", False)
                        round_span.set("winner_rejected", str(winner))
                        rejected_here.append(winner)
                        continue
                    evaluated = exact
                current = evaluated
                # ``applied`` is the net design (the trace keeps the path).
                undone = next((t for t in applied
                               if self._inverse(t) == winner), None)
                if undone is None:
                    applied.append(winner)
                else:
                    applied.remove(undone)
                pool = [c for c in pool if c is not winner]
                rejected_here = []
                round_span.set("improved", True)
                round_span.set("winner", str(winner))
                round_span.set("cost", evaluated.total_cost)
        # Never return a design costlier than the base mapping's tuned
        # design: if the split-everything start landed in a bad local
        # minimum the merges could not escape, fall back.
        applied_log = [str(t) for t in applied]
        if base_eval is not None and \
                base_eval.total_cost < current.total_cost:
            current = base_eval
            applied_log = ["(reverted to base mapping)"]
        return DesignResult.of(self.algorithm, self.workload, current,
                               self.counters, rounds, applied_log)

    def _select_candidates(self) -> CandidateSet:
        return CandidateSelector(self.base_mapping,
                                 self.collected).select(self.workload)

    def _merge_split_candidates(self, candidates: CandidateSet
                                ) -> list[Transformation]:
        if self.merging == "none" or len(candidates.implicit_unions) < 2:
            return list(candidates.splits)
        merger = CandidateMerger(self.base_mapping, self.collected,
                                 self.workload)
        if self.merging == "greedy":
            merged = merger.merge_greedy(candidates.implicit_unions)
        else:
            merged = merger.merge_exhaustive(candidates.implicit_unions)
        # Implicit-union candidates are replaced by the merged pool.
        out = [t for t in candidates.splits
               if not (isinstance(t, UnionDistribute)
                       and t.distribution.is_implicit)]
        out += [UnionDistribute(d) for d in merged]
        return out

    def _inverse(self, transformation: Transformation) -> Transformation | None:
        if isinstance(transformation, UnionDistribute):
            return UnionFactorize(transformation.distribution)
        if isinstance(transformation, RepetitionSplit):
            return RepetitionMerge(transformation.rep_node_id)
        if isinstance(transformation, TypeSplit):
            # Undoing a type split = merging the split node back with the
            # nodes that shared its original annotation.
            old = self.base_mapping.annotation_of(transformation.node_id)
            if old is None:
                return None
            sharers = self.base_mapping.nodes_with_annotation(old)
            return TypeMerge(tuple(sharers), old)
        return None

    def _recheck_winner(self, evaluator: MappingEvaluator,
                        evaluated: EvaluatedMapping
                        ) -> EvaluatedMapping | None:
        """Exact re-cost of the round winner (Fig. 3 line 18)."""
        return evaluator.evaluate(evaluated.mapping)

    def _cost_candidates(self, candidates: list[Transformation],
                         current: EvaluatedMapping,
                         evaluator: MappingEvaluator,
                         exact: bool = False
                         ) -> list[EvaluatedMapping | None]:
        """Cost one round's candidates against ``current``, as a batch.

        The derivation decisions (cached hit / partial / exact) are made
        up front per candidate; the resulting exact and partial work
        lists then go through the evaluator's batch API, which fans out
        to the worker pool when ``jobs > 1``. Results align with the
        input list.
        """
        results: list[EvaluatedMapping | None] = [None] * len(candidates)
        exact_items: list[tuple[int, Transformation, Mapping]] = []
        partial_items: list[tuple[int, Transformation, Mapping, dict]] = []
        for index, candidate in enumerate(candidates):
            self.counters.transformations_searched += 1
            try:
                mapping = candidate.validate_applied(current.mapping)
            except MappingError as exc:
                # Inapplicable against the current mapping (e.g. its
                # target was merged away in an earlier round) — skip the
                # candidate, never the whole round.
                note_suppressed(exc, "greedy.validate_applied", self.tracer)
                continue
            if mapping.signature() == current.mapping.signature():
                continue
            if self.derivation.enabled and not exact:
                hit = evaluator.cached(mapping)
                if hit is not None:
                    if self.tracer.enabled:
                        self.tracer.event("derivation", kind="cached",
                                          candidate=str(candidate))
                    results[index] = self._checked_transform(
                        candidate, current, hit)
                    continue
                reuse = self.derivation.reusable_costs(candidate, current)
                # Partial evaluation only pays when a meaningful share
                # of the workload carries over; otherwise it costs
                # nearly a full advisor call *plus* the exact re-check
                # of winners.
                if len(reuse) >= 0.25 * len(self.workload):
                    if self.tracer.enabled:
                        self.tracer.event("derivation", kind="hit",
                                          candidate=str(candidate),
                                          reused=len(reuse))
                    partial_items.append((index, candidate, mapping, reuse))
                    continue
                if self.tracer.enabled:
                    self.tracer.event("derivation", kind="miss",
                                      candidate=str(candidate),
                                      reused=len(reuse))
            exact_items.append((index, candidate, mapping))
        if partial_items:
            evaluations = evaluator.evaluate_partial_many(
                [(mapping, reuse, current)
                 for _, _, mapping, reuse in partial_items])
            for (index, candidate, _, _), evaluated in zip(partial_items,
                                                           evaluations):
                results[index] = self._checked_transform(candidate, current,
                                                         evaluated)
        if exact_items:
            evaluations = evaluator.evaluate_many(
                [mapping for _, _, mapping in exact_items])
            for (index, candidate, _), evaluated in zip(exact_items,
                                                        evaluations):
                results[index] = self._checked_transform(candidate, current,
                                                         evaluated)
        return results

    def _checked_transform(self, candidate: Transformation,
                           current: EvaluatedMapping,
                           evaluated: EvaluatedMapping | None
                           ) -> EvaluatedMapping | None:
        """``evaluated``, once the debug-mode lossless check passed."""
        if evaluated is not None:
            check_rewrite(str(candidate), current.schema, evaluated.schema,
                          self.tracer)
        return evaluated
