"""The skeleton every design search shares.

Greedy (paper Fig. 3), Naive-Greedy and Two-Step (§5.1.1) are one
round-based greedy over mappings that differ in which neighbours a
round costs and how. :class:`Search` holds what they share, so a search
class holds only its own settings and its ``_run_with(evaluator)`` loop:

* the problem — tree, workload, statistics, storage bound, base
  mapping — and the run's knobs: ``max_rounds``, tracer, ``jobs`` and
  the checkpoint store, cadence and resume flag;
* :meth:`Search.run` — the stopwatch, the root span named after the
  algorithm, and one :class:`MappingEvaluator` for the run's lifetime;
* :meth:`Search.problem_key` — what a checkpoint must match to resume,
  from the problem and the search's :meth:`~Search.settings`;
* :meth:`Search._neighbours` — the unpruned round's enumeration: every
  transformation applicable to a mapping, with the mapping it leads to.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from pathlib import Path

from ..errors import MappingError
from ..mapping import (CollectedStats, Mapping, Transformation,
                       enumerate_transformations, hybrid_inlining)
from ..obs import NullTracer, Tracer, get_tracer
from ..resilience import CheckpointStore, note_suppressed
from ..workload import Workload
from ..xsd import SchemaTree
from .evaluator import MappingEvaluator, mapping_digest, problem_digest
from .result import DesignResult, SearchCounters


class Search:
    """One design search over one (tree, workload, stats, bound) problem."""

    #: Names the root span, the result and the search's checkpoints.
    algorithm = ""
    #: Whether the run's evaluator remembers the mappings it costed.
    use_cache = True

    def __init__(self, tree: SchemaTree, workload: Workload,
                 collected: CollectedStats,
                 storage_bound: int | None = None,
                 base_mapping: Mapping | None = None,
                 max_rounds: int = 25,
                 tracer: Tracer | NullTracer | None = None,
                 jobs: int | None = None,
                 checkpoint: CheckpointStore | str | Path | None = None,
                 checkpoint_every: int = 1,
                 resume: bool = False):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1 (got {checkpoint_every})")
        self.tree = tree
        self.workload = workload
        self.collected = collected
        self.storage_bound = storage_bound
        self.base_mapping = base_mapping or hybrid_inlining(tree)
        self.max_rounds = max_rounds
        self.tracer = tracer if tracer is not None else get_tracer()
        self.jobs = jobs
        if isinstance(checkpoint, (str, Path)):
            checkpoint = CheckpointStore(checkpoint, tracer=self.tracer)
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.counters = SearchCounters()

    def run(self) -> DesignResult:
        """Run the search under its stopwatch and root span, which ends
        up carrying the round count and the estimated cost and (with an
        enabled tracer) becomes ``result.trace``."""
        tracer, workload = self.tracer, self.workload
        start = time.perf_counter()
        try:
            with tracer.span(self.algorithm, workload=workload.name,
                             queries=len(workload)) as span:
                with MappingEvaluator(
                        workload, self.collected, self.storage_bound,
                        use_cache=self.use_cache, counters=self.counters,
                        tracer=tracer, jobs=self.jobs) as evaluator:
                    result = self._run_with(evaluator)
        finally:
            self.counters.wall_time += time.perf_counter() - start
        if tracer.enabled:
            span.set("rounds", result.rounds)
            span.set("estimated_cost", result.estimated_cost)
            result.trace = span
        return result

    def _run_with(self, evaluator: MappingEvaluator) -> DesignResult:
        raise NotImplementedError

    def settings(self) -> tuple:
        """The search's own options that a checkpoint must match."""
        return ()

    def problem_key(self) -> str:
        """Everything that must match for a checkpoint to be resumable
        (see docs/resilience.md)."""
        return "|".join([
            problem_digest(self.workload, self.collected, self.storage_bound),
            mapping_digest(self.base_mapping),
            repr((self.max_rounds, *self.settings()))])

    def _neighbours(self, mapping: Mapping, include_subsumed: bool,
                    split_count: int, site: str
                    ) -> Iterator[tuple[Transformation, Mapping]]:
        """Every transformation applicable to ``mapping``, with the
        mapping it leads to. Each one enumerated counts as searched; one
        that does not apply is noted under ``site`` and skipped."""
        for transformation in enumerate_transformations(
                mapping, include_subsumed=include_subsumed,
                default_split_count=split_count):
            self.counters.transformations_searched += 1
            try:
                neighbour = transformation.apply(mapping)
            except MappingError as exc:
                note_suppressed(exc, site, self.tracer)
                continue
            yield transformation, neighbour
