"""Fig. 7 — speed-up from candidate selection on DBLP.

Paper shapes asserted: skipping subsumed transformations is the dominant
factor (8-12x in the paper); the remaining selection rules add roughly
another 2x; quality does not degrade.
"""

import statistics

from conftest import QUERIES

from repro.experiments import FIG7_VARIANTS, compare_algorithms, fig7_table
from repro.experiments.ablations import SKIP_SUBSUMED, UNPRUNED


def test_fig7_candidate_selection(benchmark, dblp_bundle, emit):
    generator = dblp_bundle.workload_generator(seed=43)
    # The unpruned baseline re-costs every transformation every round,
    # so Fig. 7 runs on the paper's smaller (10-query) workloads.
    workloads = [
        generator.generate(QUERIES),
        generator.generate(QUERIES, selectivity=(0.5, 1.0),
                           projections=(5, 20)),
    ]
    comparison = benchmark.pedantic(
        lambda: compare_algorithms(dblp_bundle, workloads, FIG7_VARIANTS,
                                   naive_max_queries=QUERIES),
        rounds=1, iterations=1)
    emit(fig7_table(comparison))
    subsumed = comparison.series("wall_time", [UNPRUNED],
                                 per=SKIP_SUBSUMED)[UNPRUNED]
    overall = comparison.series("wall_time", [UNPRUNED],
                                per="greedy")[UNPRUNED]
    subsumed_mean = statistics.mean(subsumed.values())
    overall_mean = statistics.mean(overall.values())
    assert subsumed_mean > 1.5, "skipping subsumed transformations must pay"
    assert overall_mean > subsumed_mean, \
        "the full rule set must beat subsumed-skipping alone"
    assert overall_mean > 5, "candidate selection must be a large win overall"
    quality = comparison.series("normalized_cost")
    for name, full in quality["greedy"].items():
        assert full <= quality[UNPRUNED][name] * 1.5 + 0.1, \
            "candidate selection must not lose (much) quality"
