"""The Two-Step baseline (paper Section 5.1.1).

Step 1 greedily selects the minimal-cost *logical* mapping without
considering physical design: every mapping is costed by the query
optimizer alone, under the "best guess" default physical design — a
clustered index on each table's ID column and a nonclustered index on
its PID column — never calling the tuning advisor.

Step 2 runs the physical design tool once, on the mapping chosen in
step 1.

The paper shows this decoupling loses ~77% (DBLP) / ~47% (Movie)
workload performance against the joint Greedy search (Fig. 4), because
step 1 systematically prefers mappings whose *unindexed* cost is low —
e.g. it avoids repetition split (wider scans) even when a covering index
would make the split a large win.
"""

from __future__ import annotations

from ..engine import Index
from ..errors import MappingError, SearchError, SQLError, TranslationError
from ..mapping import Mapping, derive_schema
from ..resilience import note_suppressed
from .base import Search
from .evaluator import (MappingEvaluator, build_stats_only_database,
                        check_fits, check_rewrite, translate_workload)
from .result import DesignResult


class TwoStepSearch(Search):
    """Logical design first, physical design after."""

    algorithm = "two-step"

    def __init__(self, *args, default_split_count: int = 5, **options):
        refused = sorted({"checkpoint", "checkpoint_every", "resume"}
                         & options.keys())
        if refused:
            # Step 1 re-enumerates from scratch each round, with no
            # costly per-round state worth snapshotting.
            raise TypeError(f"TwoStepSearch does not checkpoint; it "
                            f"takes no {', '.join(refused)}")
        super().__init__(*args, **options)
        self.default_split_count = default_split_count

    def _run_with(self, evaluator: MappingEvaluator) -> DesignResult:
        current_mapping = self.base_mapping
        with self.tracer.span("logical_step") as logical_span:
            current_cost = self._logical_cost(current_mapping)
            if current_cost is None:
                raise SearchError(
                    "base mapping is infeasible for the workload")
            applied: list[str] = []
            rounds = 0
            while rounds < self.max_rounds:
                rounds += 1
                best: tuple[float, str, Mapping] | None = None
                for transformation, mapping in self._neighbours(
                        current_mapping, True, self.default_split_count,
                        "twostep.apply"):
                    cost = self._logical_cost(mapping)
                    if cost is None:
                        continue
                    if cost < current_cost and \
                            (best is None or cost < best[0]):
                        best = (cost, str(transformation), mapping)
                if best is None:
                    break
                # Once per *applied* round (rounds are few), so
                # re-deriving both schemas is cheap relative to the
                # logical costing above.
                check_rewrite(best[1], derive_schema(current_mapping),
                              derive_schema(best[2]), self.tracer)
                current_cost, name, current_mapping = best
                applied.append(name)
            logical_span.set("rounds", rounds)
            logical_span.set("applied", len(applied))

        # Step 2: physical design once, on the chosen logical mapping.
        with self.tracer.span("physical_step"):
            final = evaluator.evaluate(current_mapping)
        if final is None:
            check_fits(self.base_mapping, self.collected, self.storage_bound)
            raise SearchError("chosen logical mapping became infeasible")
        return DesignResult.of(self.algorithm, self.workload, final,
                               self.counters, rounds, applied)

    # ------------------------------------------------------------------
    def _logical_cost(self, mapping: Mapping) -> float | None:
        """Optimizer cost under the default physical design only."""
        self.counters.mappings_evaluated += 1
        try:
            schema = derive_schema(mapping)
        except MappingError as exc:
            note_suppressed(exc, "twostep.derive_schema", self.tracer)
            return None
        db = build_stats_only_database(schema, self.collected,
                                       tracer=self.tracer)
        default_indexes = []
        for table in db.catalog.base_tables():
            if table.has_column("PID"):
                default_indexes.append(Index(
                    name=f"defix_pid_{table.name}", table_name=table.name,
                    key_columns=("PID",)))
        try:
            translator_queries = translate_workload(self.workload, schema)
        except TranslationError:
            return None
        total = 0.0
        for sql, weight in translator_queries:
            try:
                planned = db.estimate(sql, extra_indexes=default_indexes)
            except SQLError as exc:
                # An unplannable query makes the mapping infeasible for
                # step 1; anything else (CheckError, injected faults)
                # still propagates — those signal bugs, not infeasibility.
                note_suppressed(exc, "twostep.estimate", self.tracer)
                return None
            self.counters.optimizer_calls += 1
            total += weight * planned.est_cost
        return total
