"""Ablation — the storage bound S of Definition 1.

The paper fixes S so "there is enough space for all indexes recommended
by the physical design tool" (Table 1). This bench sweeps S from
data-size-only up to unconstrained and checks the advisor degrades
gracefully: measured workload cost is non-increasing as the bound
relaxes, and the configuration always fits its bound.
"""

from repro.experiments import format_table, measure_workload, realize
from repro.search import MappingEvaluator
from repro.mapping import hybrid_inlining


def test_storage_bound_sweep(benchmark, dblp_bundle, emit):
    workload = dblp_bundle.workload_generator(seed=47).generate(8)
    mapping = hybrid_inlining(dblp_bundle.tree)

    def sweep():
        # Data size under the hybrid mapping (from a throwaway run).
        probe = MappingEvaluator(workload, dblp_bundle.stats).evaluate(mapping)
        data_bytes = sum(t.size_bytes
                         for t in probe.database.catalog.base_tables())
        factors = [1.05, 1.25, 1.5, 2.0, 4.0]
        points = []
        for factor in factors:
            bound = int(data_bytes * factor)
            evaluator = MappingEvaluator(workload, dblp_bundle.stats,
                                         storage_bound=bound)
            evaluated = evaluator.evaluate(mapping)
            db = realize(evaluated.schema, evaluated.tuning.configuration,
                         dblp_bundle.docs)
            measured = measure_workload(db, evaluated.sql_queries)
            design_bytes = evaluated.tuning.configuration.size_bytes(
                evaluated.database)
            points.append((factor, bound, design_bytes, measured,
                           len(evaluated.tuning.configuration)))
        return data_bytes, points

    data_bytes, points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(format_table(
        "Ablation — storage bound sweep (DBLP, hybrid mapping)",
        ["bound (x data)", "design KB", "structures", "measured cost"],
        [[f"{factor:.2f}", f"{design / 1024:.0f}", count, cost]
         for factor, bound, design, cost, count in points],
        note=f"data size {data_bytes / 1024:.0f} KB"))
    # Configurations always fit their bound.
    for factor, bound, design, _, _ in points:
        assert data_bytes + design <= bound * 1.001
    # More space never hurts (by more than measurement granularity).
    costs = [cost for _, _, _, cost, _ in points]
    for tighter, looser in zip(costs, costs[1:]):
        assert looser <= tighter * 1.10
    # The relaxed end uses the space to go meaningfully faster.
    assert costs[-1] <= costs[0]
