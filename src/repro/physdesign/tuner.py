"""The index/materialized-view tuning advisor.

Plays the role of SQL Server 2000's Index Tuning Wizard in the paper's
architecture (Fig. 2): given a SQL workload and a storage bound, it

1. generates per-query index and join-view candidates,
2. costs configurations with what-if optimizer calls (no data touched),
3. greedily selects the structure with the best benefit-per-byte until
   no structure improves the workload or the bound is reached,
4. reports per-query estimated costs and the object sets ``I(Q)`` used
   by each query plan — the hooks the search algorithm's cost-derivation
   optimization (paper Section 4.8) relies on.

The advisor never materializes anything; call :func:`materialize` on a
database holding real data to build the final recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..engine import Database
from ..engine.optimizer import Optimizer
from ..errors import PlanError, SearchError
from ..obs import NullTracer, Tracer, get_tracer
from ..sqlast import Query
from .candidates import CandidateGenerator
from .config import Configuration

#: Structures accepted per tuning, at most.
MAX_ROUNDS = 12
#: A structure must save more than this much weighted cost to be kept.
MIN_BENEFIT = 1e-6


@dataclass
class QueryReport:
    """Advisor output for one workload query."""

    query: Query
    weight: float
    cost: float
    objects_used: frozenset[str]


@dataclass
class TuningResult:
    """Advisor output for one workload."""

    configuration: Configuration
    total_cost: float
    reports: list[QueryReport]
    optimizer_calls: int
    candidates_considered: int

    def cost_of(self, index: int) -> float:
        return self.reports[index].cost


class IndexTuningAdvisor:
    """Greedy what-if physical design advisor."""

    def __init__(self, db: Database,
                 tracer: Tracer | NullTracer | None = None):
        self.db = db
        self.tracer = tracer if tracer is not None else get_tracer()
        self._optimizer_calls = 0
        self._heap_reevaluations = 0
        # The configuration last costed under and the database's
        # optimizer for it: a trial configuration costs every query it
        # affects before the next one is tried.
        self._what_if: tuple[Configuration, Optimizer] | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _matters(tables: frozenset[str], candidate: Configuration) -> bool:
        """Whether ``candidate`` can move the plan of a query over
        ``tables``: an index on one of them, or a view joining two."""
        if any(index.table_name in tables for index in candidate.indexes):
            return True
        for view in candidate.views:
            definition = view.view_def
            assert definition is not None
            if {definition.parent_table, definition.child_table} <= tables:
                return True
        return False

    # ------------------------------------------------------------------
    def tune(self, workload: list[tuple[Query, float]],
             storage_bound: int | None = None) -> TuningResult:
        """Recommend a configuration for the weighted SQL workload."""
        from ..resilience import active_fault_plan
        active_fault_plan().maybe_raise("advisor")
        self._optimizer_calls = 0
        self._heap_reevaluations = 0
        self._what_if = None    # the catalog may have moved since
        paths = self.db.access_paths
        before = paths.counters()
        with self.tracer.span("advisor.tune", queries=len(workload),
                              database=self.db.name) as span:
            result = self._tune(workload, storage_bound)
            for name, count in paths.counters().items():
                span.set(name, count - before[name])
            span.set("candidates", result.candidates_considered)
            span.set("optimizer_calls", result.optimizer_calls)
            span.set("heap_reevaluations", self._heap_reevaluations)
            span.set("structures_selected", len(result.configuration))
            span.set("total_cost", result.total_cost)
        # The candidates this tune tried are garbage now, and with them
        # nearly every choice the database remembers for a SELECT.
        paths.forget_selects()
        return result

    def _tune(self, workload: list[tuple[Query, float]],
              storage_bound: int | None = None) -> TuningResult:
        generator = CandidateGenerator(self.db)
        candidates: list[Configuration] = []
        for query, _ in workload:
            candidates += generator.for_query(query)
        tables = [query.referenced_tables for query, _ in workload]

        data_bytes = self.db.catalog.total_data_bytes()
        budget = None
        if storage_bound is not None:
            budget = storage_bound - data_bytes
            if budget < 0:
                raise SearchError(
                    f"storage bound {storage_bound} is below the data size "
                    f"{data_bytes}")

        chosen = Configuration()
        current_costs = [self._cost(query, chosen)[0]
                         for query, _ in workload]

        # Lazy greedy selection: a candidate's benefit-per-byte can only
        # shrink as the configuration grows (diminishing returns), so we
        # keep stale scores in a max-heap and only re-evaluate the
        # candidate currently on top. This avoids re-costing every
        # candidate every round.
        import heapq

        # Candidate sizes never change during selection, so each is
        # computed exactly once; the accepted configuration's size is a
        # running sum — re-deriving ``chosen.size_bytes`` on every heap
        # pop made selection quadratic in configuration size.
        sizes = [candidate.size_bytes(self.db) for candidate in candidates]
        chosen_size = 0

        def evaluate(candidate, base_costs, size):
            trial = chosen | candidate
            new_costs = list(base_costs)
            benefit = 0.0
            for i, (query, weight) in enumerate(workload):
                if not self._matters(tables[i], candidate):
                    continue
                cost, _ = self._cost(query, trial)
                benefit += weight * (base_costs[i] - cost)
                new_costs[i] = cost
            return benefit / max(size, 1), benefit, new_costs

        heap: list = []
        for order, (candidate, size) in enumerate(zip(candidates, sizes)):
            if budget is not None and size > budget:
                continue
            score, benefit, new_costs = evaluate(candidate, current_costs,
                                                 size)
            if benefit <= MIN_BENEFIT:
                continue
            heapq.heappush(heap, (-score, 0, order, candidate, new_costs))

        rounds = 0
        while heap and rounds < MAX_ROUNDS:
            neg_score, generation, order, candidate, new_costs = \
                heapq.heappop(heap)
            size = sizes[order]
            if budget is not None and chosen_size + size > budget:
                continue
            if generation != rounds:
                # Stale score: re-evaluate against the current config.
                self._heap_reevaluations += 1
                score, benefit, new_costs = evaluate(candidate,
                                                     current_costs, size)
                if benefit <= MIN_BENEFIT:
                    continue
                heapq.heappush(heap, (-score, rounds, order, candidate,
                                      new_costs))
                continue
            chosen = chosen | candidate
            chosen_size += size
            current_costs = new_costs
            rounds += 1
            # Scores in the heap are now stale relative to `rounds`.

        reports: list[QueryReport] = []
        total = 0.0
        for query, weight in workload:
            cost, objects = self._cost(query, chosen)
            reports.append(QueryReport(query=query, weight=weight,
                                       cost=cost, objects_used=objects))
            total += weight * cost
        # A structure no final plan reads is dropped: one picked early
        # stays chosen after later ones supersede it. No plan's cost
        # moves, as none of them read it.
        used = frozenset().union(*(report.objects_used for report in reports))
        chosen = Configuration(
            [index for index in chosen.indexes if index.name in used],
            [view for view in chosen.views if view.name in used])
        return TuningResult(
            configuration=chosen,
            total_cost=total,
            reports=reports,
            optimizer_calls=self._optimizer_calls,
            candidates_considered=len(candidates),
        )

    # ------------------------------------------------------------------
    def _cost(self, query: Query,
              configuration: Configuration) -> tuple[float, frozenset[str]]:
        if self._what_if is None or self._what_if[0] is not configuration:
            self._what_if = (configuration, self.db.what_if(
                configuration.indexes, configuration.views))
        self._optimizer_calls += 1
        try:
            planned = self.db.estimate_under(self._what_if[1], query)
        except PlanError as exc:
            raise SearchError(f"cannot cost query {query}: {exc}") from exc
        return planned.est_cost, planned.objects_used()


def materialize(db: Database, configuration: Configuration) -> None:
    """Build a recommended configuration on a database with real data."""
    for view in configuration.views:
        assert view.view_def is not None
        db.create_materialized_view(view.name, view.view_def)
    for index in configuration.indexes:
        table = db.catalog.table(index.table_name)
        built = replace(index)      # the configuration's stays unbuilt
        db.catalog.add_index(built)
        if table.is_materialized:
            built.build(table)
