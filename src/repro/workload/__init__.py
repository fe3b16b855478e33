"""Workload model, random generator (paper Section 5.1.3), and the
load-harness query-mix sampler."""

from .generator import (HIGH_PROJECTIONS, HIGH_SELECTIVITY, LOW_PROJECTIONS,
                        LOW_SELECTIVITY, WorkloadGenerator)
from .mix import MixSampler, QueryMix, zipf_mix
from .model import WeightedQuery, Workload

__all__ = [
    "Workload",
    "WeightedQuery",
    "WorkloadGenerator",
    "QueryMix",
    "MixSampler",
    "zipf_mix",
    "LOW_SELECTIVITY",
    "HIGH_SELECTIVITY",
    "LOW_PROJECTIONS",
    "HIGH_PROJECTIONS",
]
