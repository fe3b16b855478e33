"""Search algorithms over the combined logical+physical design space."""

from .cache import (CacheKey, EvaluationCache, default_cache_dir,
                    problem_digest, stats_digest, workload_digest)
from .candidate_merging import CandidateMerger
from .candidate_selection import (CandidateSelector, CandidateSet,
                                  apply_splits)
from .cost_derivation import CostDerivation, affected_annotations
from .evaluator import (EvaluatedMapping, MappingEvaluator,
                        build_stats_only_database, mapping_digest)
from .greedy import GreedySearch
from .naive import NaiveGreedySearch
from .parallel import EvaluationPool, resolve_jobs
from .result import DesignResult, SearchCounters, Stopwatch
from .twostep import TwoStepSearch
from .updates import update_load_for

__all__ = [
    "CacheKey",
    "EvaluationCache",
    "EvaluationPool",
    "default_cache_dir",
    "problem_digest",
    "stats_digest",
    "workload_digest",
    "resolve_jobs",
    "GreedySearch",
    "NaiveGreedySearch",
    "TwoStepSearch",
    "DesignResult",
    "SearchCounters",
    "Stopwatch",
    "MappingEvaluator",
    "EvaluatedMapping",
    "build_stats_only_database",
    "mapping_digest",
    "CandidateSelector",
    "CandidateSet",
    "apply_splits",
    "CandidateMerger",
    "CostDerivation",
    "affected_annotations",
    "update_load_for",
]
