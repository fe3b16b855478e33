"""Fault injection, retry/deadline policy, and checkpoint/resume.

Three pillars that make the design search survivable (see
docs/resilience.md):

* :mod:`~repro.resilience.faults` — a seeded, deterministic
  :class:`FaultPlan` raising classified faults at named sites
  (``REPRO_FAULTS`` / ``--faults``), so every failure path is
  exercisable in tests and CI;
* :mod:`~repro.resilience.policy` — a :class:`RetryPolicy` with
  bounded backoff and per-evaluation deadlines; exhausted candidates
  degrade to *infeasible-by-fault* and the search continues;
* :mod:`~repro.resilience.checkpoint` — a :class:`CheckpointStore`
  snapshotting search state atomically (through the one
  ``save_search_state``/``load_search_state`` codec), so a killed
  search resumes to an identical :class:`DesignResult`;
* :mod:`~repro.resilience.breaker` — an error-rate
  :class:`CircuitBreaker` with a seeded probe schedule, used by the
  serving layer to fast-fail when the backend goes bad and to recover
  deterministically.
"""

from .breaker import CLOSED, OPEN, CircuitBreaker
from .checkpoint import (CheckpointStore, load_search_state,
                         save_search_state)
from .faults import (NULL_PLAN, RETRYABLE_CATEGORIES, FaultPlan, FaultRule,
                     active_fault_plan, classify, install_fault_plan)
from .policy import RetryPolicy, note_suppressed

__all__ = [
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "FaultPlan",
    "FaultRule",
    "NULL_PLAN",
    "active_fault_plan",
    "install_fault_plan",
    "classify",
    "RETRYABLE_CATEGORIES",
    "RetryPolicy",
    "note_suppressed",
    "CheckpointStore",
    "load_search_state",
    "save_search_state",
]
