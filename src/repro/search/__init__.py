"""Search algorithms over the combined logical+physical design space.

:data:`ALGORITHMS` names the searches and :func:`design_for` is the one
way from a design *name* — a search or a mapping preset — to a
:class:`DesignResult`; the CLI, the comparator, the calibration harness
and the experiment drivers all go through it.
"""

import math

from ..mapping import PRESETS, derive_schema
from ..physdesign import Configuration
from .candidate_merging import CandidateMerger
from .candidate_selection import (CandidateSelector, CandidateSet,
                                  apply_splits)
from .cost_derivation import CostDerivation, affected_annotations
from .evaluator import (EvaluatedMapping, MappingEvaluator,
                        build_stats_only_database, mapping_digest,
                        problem_digest, translate_workload)
from .greedy import GreedySearch
from .naive import NaiveGreedySearch
from .parallel import EvaluationPool, resolve_jobs
from .result import DesignResult, SearchCounters
from .twostep import TwoStepSearch

#: The algorithm table, in the order the paper's figures list them.
ALGORITHMS = {
    "greedy": GreedySearch,
    "naive-greedy": NaiveGreedySearch,
    "two-step": TwoStepSearch,
}


def design_for(name: str, tree, workload, stats, storage_bound=None,
               tracer=None, **options) -> DesignResult:
    """The design called ``name`` for one (tree, workload, stats) problem.

    An :data:`ALGORITHMS` name runs that search. A
    :data:`~repro.mapping.PRESETS` name keeps the preset's logical
    mapping and lets the physical-design advisor tune it (one
    :class:`MappingEvaluator` evaluation: translation and what-if
    calls, no data touched); when the workload is infeasible under the
    preset the result is its bare logical design — no physical
    structures, ``estimated_cost`` infinite. ``options`` go to the
    search (or evaluator) constructor: ``jobs``, ``max_rounds``, ...
    """
    if name in ALGORITHMS:
        return ALGORITHMS[name](tree, workload, stats,
                                storage_bound=storage_bound, tracer=tracer,
                                **options).run()
    if name not in PRESETS:
        raise ValueError(f"unknown design {name!r} (known: "
                         f"{', '.join([*PRESETS, *ALGORITHMS])})")
    mapping = PRESETS[name](tree)
    with MappingEvaluator(workload, stats, storage_bound, tracer=tracer,
                          **options) as evaluator:
        evaluated = evaluator.evaluate(mapping)
    if evaluated is None:
        schema = derive_schema(mapping)
        return DesignResult(name, workload, mapping, schema, Configuration(),
                            translate_workload(workload, schema), math.inf,
                            evaluator.counters)
    return DesignResult.of(name, workload, evaluated, evaluator.counters)


__all__ = [
    "ALGORITHMS",
    "design_for",
    "EvaluationPool",
    "problem_digest",
    "resolve_jobs",
    "GreedySearch",
    "NaiveGreedySearch",
    "TwoStepSearch",
    "DesignResult",
    "SearchCounters",
    "MappingEvaluator",
    "EvaluatedMapping",
    "build_stats_only_database",
    "mapping_digest",
    "translate_workload",
    "CandidateSelector",
    "CandidateSet",
    "apply_splits",
    "CandidateMerger",
    "CostDerivation",
    "affected_annotations",
]
