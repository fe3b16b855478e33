"""Ablation — the storage bound S of Definition 1.

The paper fixes S so "there is enough space for all indexes recommended
by the physical design tool" (Table 1). This bench sweeps S from
data-size-only up to unconstrained and checks the advisor degrades
gracefully: measured workload cost is non-increasing as the bound
relaxes, and the configuration always fits its bound.

A second sweep runs the searches under a bound that binds: Greedy's
estimated cost against Naive-Greedy's without subsumed transformations,
on both datasets and the four standard workloads, at bounds just above
the hybrid mapping's data.
"""

from conftest import QUERIES

from repro.experiments import format_table, measure_design
from repro.search import (GreedySearch, MappingEvaluator, NaiveGreedySearch,
                          build_stats_only_database, design_for)
from repro.mapping import derive_schema, hybrid_inlining

#: Bound factors (x the hybrid mapping's data) of the search sweep, and
#: the ones at which Greedy must stay within 5 % of Naive-Greedy.
SEARCH_FACTORS = (1.02, 1.10, 1.25, 2.0)
ASSERTED_FACTORS = (1.02, 1.10)


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
            design = design_for("hybrid", dblp_bundle.tree, workload,
                                dblp_bundle.stats, storage_bound=bound)
            design_bytes = design.configuration.size_bytes(probe.database)
            points.append((factor, bound, design_bytes,
                           measure_design(design, dblp_bundle),
                           len(design.configuration)))
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


def test_search_under_a_binding_bound(benchmark, dblp_bundle, movie_bundle,
                                      emit):
    def sweep():
        ratios = {}
        for bundle in (dblp_bundle, movie_bundle):
            data_bytes = build_stats_only_database(
                derive_schema(hybrid_inlining(bundle.tree)),
                bundle.stats).catalog.total_data_bytes()
            generator = bundle.workload_generator(seed=43)
            for workload in generator.standard_suite(QUERIES):
                for factor in SEARCH_FACTORS:
                    bound = int(data_bytes * factor)
                    greedy = GreedySearch(bundle.tree, workload,
                                          bundle.stats, bound).run()
                    naive = NaiveGreedySearch(
                        bundle.tree, workload, bundle.stats, bound,
                        include_subsumed=False).run()
                    ratios[bundle.name, workload.name, factor] = \
                        greedy.estimated_cost / naive.estimated_cost
        return ratios

    ratios = benchmark.pedantic(sweep, rounds=1, iterations=1)
    problems = sorted({(dataset, name) for dataset, name, _ in ratios})
    emit(format_table(
        "Ablation — Greedy / Naive-Greedy (no subsumed) under a binding "
        "bound (estimated cost)",
        ["dataset", "workload"] + [f"{f:.2f} x data" for f in SEARCH_FACTORS],
        [[dataset, name] + [f"{ratios[dataset, name, f]:.3f}"
                            for f in SEARCH_FACTORS]
         for dataset, name in problems],
        note="bound = factor x the hybrid mapping's data; asserted <= 1.05 "
             f"at {', '.join(f'{f:.2f}' for f in ASSERTED_FACTORS)}"))
    for (dataset, name, factor), ratio in ratios.items():
        if factor in ASSERTED_FACTORS:
            assert ratio <= 1.05, (dataset, name, factor, ratio)
