"""Fig. 4 — workload execution cost of the designs returned by Greedy,
Naive-Greedy, and Two-Step, normalized to tuned hybrid inlining.

Paper shapes asserted: Greedy and Naive-Greedy have comparable quality;
Two-Step is clearly worse than Greedy on average (paper: +77% DBLP,
+47% Movie); Greedy (almost always) beats the hybrid baseline.
"""

import statistics

from conftest import build_comparison


def _check_shapes(comparison):
    greedy = comparison.by_variant("greedy")
    naive = comparison.by_variant("naive-greedy")
    twostep = comparison.by_variant("two-step")
    # Greedy improves on (or at worst matches) hybrid inlining on the
    # large majority of workloads.
    improved = sum(1 for run in greedy.values()
                   if run.normalized_cost <= 1.02)
    assert improved >= 0.75 * len(greedy)
    # Two-Step is worse than Greedy on average.
    paired = [(twostep[name].normalized_cost, run.normalized_cost)
              for name, run in greedy.items() if name in twostep]
    mean_twostep = statistics.mean(p[0] for p in paired)
    mean_greedy = statistics.mean(p[1] for p in paired)
    assert mean_twostep > mean_greedy * 1.1, \
        f"Two-Step ({mean_twostep:.2f}) should trail Greedy ({mean_greedy:.2f})"
    # Naive-Greedy quality is comparable to Greedy (within ~1.5x either way).
    for name, run in naive.items():
        assert run.normalized_cost <= greedy[name].normalized_cost * 1.6 + 0.1


def test_fig4_dblp(benchmark, dblp_bundle, comparison_cache, emit):
    comparison = benchmark.pedantic(
        lambda: build_comparison(dblp_bundle, comparison_cache),
        rounds=1, iterations=1)
    emit(comparison.fig4())
    _check_shapes(comparison)


def test_fig4_movie(benchmark, movie_bundle, comparison_cache, emit):
    comparison = benchmark.pedantic(
        lambda: build_comparison(movie_bundle, comparison_cache),
        rounds=1, iterations=1)
    emit(comparison.fig4())
    _check_shapes(comparison)
