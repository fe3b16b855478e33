"""Result and instrumentation types shared by the search algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mapping import MappedSchema, Mapping
from ..obs import Span
from ..physdesign import Configuration
from ..sqlast import Query
from ..workload import Workload


@dataclass
class SearchCounters:
    """Instrumentation the experiments report (Figs. 5–9)."""

    transformations_searched: int = 0
    mappings_evaluated: int = 0
    #: In-memory memo hits that returned a feasible evaluation. Cached
    #: infeasible (``None``) lookups are counted apart — they never
    #: saved an advisor call, so folding them in overstated hit rate.
    cache_hits: int = 0
    cache_hits_infeasible: int = 0
    tuner_calls: int = 0
    optimizer_calls: int = 0
    derived_query_costs: int = 0
    #: Resilience accounting (see docs/resilience.md). A retried-and-
    #: recovered evaluation counts once under ``mappings_evaluated`` and
    #: once per re-attempt under ``fault_retries``, so a chaos run with
    #: recoverable faults keeps the fault-free evaluation counters.
    fault_retries: int = 0
    #: Candidates dropped as infeasible-by-fault (retries exhausted or
    #: deadline fired) — the search continued without them.
    faulted_evaluations: int = 0
    #: Pooled evaluations abandoned by the per-evaluation deadline.
    timeouts: int = 0
    #: Times the evaluation pool degraded a backend tier
    #: (process -> in-process).
    pool_degradations: int = 0
    checkpoints_written: int = 0
    wall_time: float = 0.0


@dataclass
class DesignResult:
    """Output of one design search: the chosen mapping + configuration."""

    algorithm: str
    workload: Workload
    mapping: Mapping
    schema: MappedSchema
    configuration: Configuration
    sql_queries: list[tuple[Query, float]]
    estimated_cost: float
    counters: SearchCounters
    rounds: int = 0
    applied: list[str] = field(default_factory=list)
    #: Root span of the search's trace; ``None`` unless the search ran
    #: with an enabled :class:`repro.obs.Tracer`.
    trace: Span | None = None

    @classmethod
    def of(cls, algorithm: str, workload: Workload, evaluated,
           counters: SearchCounters, rounds: int = 0,
           applied: list[str] | None = None) -> "DesignResult":
        """The design an ``EvaluatedMapping`` stands for: its mapping,
        schema, tuned configuration, SQL and cost."""
        return cls(algorithm, workload, evaluated.mapping, evaluated.schema,
                   evaluated.tuning.configuration, evaluated.sql_queries,
                   evaluated.total_cost, counters, rounds, applied or [])

    def describe(self) -> str:
        lines = [
            f"algorithm: {self.algorithm}",
            f"workload: {self.workload.name}",
            f"estimated cost: {self.estimated_cost:.1f}",
            f"rounds: {self.rounds}",
            f"transformations applied: {self.applied or ['(none)']}",
            "relational schema:",
        ]
        lines += ["  " + line for line in self.schema.describe().splitlines()]
        lines.append("physical design:")
        lines += ["  " + line
                  for line in self.configuration.describe().splitlines()]
        return "\n".join(lines)

