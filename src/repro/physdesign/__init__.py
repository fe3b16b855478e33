"""Physical design tool: what-if index/view tuning advisor."""

from .candidates import CandidateGenerator
from .config import Configuration, ViewCandidate, make_view_candidate
from .tuner import (AdvisorStats, IndexTuningAdvisor, QueryReport,
                    TuningResult, materialize)

__all__ = [
    "CandidateGenerator",
    "Configuration",
    "ViewCandidate",
    "make_view_candidate",
    "IndexTuningAdvisor",
    "TuningResult",
    "QueryReport",
    "AdvisorStats",
    "materialize",
]
