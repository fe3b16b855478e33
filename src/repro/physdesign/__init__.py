"""Physical design tool: what-if index/view tuning advisor."""

from .candidates import CandidateGenerator
from .config import Configuration, make_view_candidate
from .tuner import IndexTuningAdvisor, QueryReport, TuningResult, materialize

__all__ = [
    "CandidateGenerator",
    "Configuration",
    "make_view_candidate",
    "IndexTuningAdvisor",
    "TuningResult",
    "QueryReport",
    "materialize",
]
