"""Fig. 5 — running time of the search algorithms, normalized to
Two-Step.

Paper shapes asserted: Greedy's running time is comparable to Two-Step
(within a small factor), while Naive-Greedy is one to two orders of
magnitude slower than Greedy.
"""

import statistics

from conftest import build_comparison


def _check_shapes(comparison, naive_factor):
    greedy = comparison.by_variant("greedy")
    naive = comparison.by_variant("naive-greedy")
    twostep = comparison.by_variant("two-step")
    ratios = [greedy[name].wall_time / max(twostep[name].wall_time, 1e-9)
              for name in greedy if name in twostep]
    assert statistics.median(ratios) < 25, \
        "Greedy must stay within a modest factor of Two-Step"
    naive_ratios = [run.wall_time / max(greedy[name].wall_time, 1e-9)
                    for name, run in naive.items() if name in greedy]
    if naive_ratios:
        # The paper reports ~2 orders of magnitude on DBLP; our advisor
        # caches what-if calls aggressively (which speeds Naive up too),
        # so the asserted gap is the conservative floor.
        assert statistics.median(naive_ratios) > naive_factor, \
            f"Naive-Greedy should be far slower than Greedy " \
            f"(ratios: {naive_ratios})"


def test_fig5_dblp(benchmark, dblp_bundle, comparison_cache, emit):
    comparison = benchmark.pedantic(
        lambda: build_comparison(dblp_bundle, comparison_cache, emit=emit),
        rounds=1, iterations=1)
    emit(comparison.fig5())
    _check_shapes(comparison, naive_factor=10)


def test_fig5_movie(benchmark, movie_bundle, comparison_cache, emit):
    comparison = benchmark.pedantic(
        lambda: build_comparison(movie_bundle, comparison_cache, emit=emit),
        rounds=1, iterations=1)
    emit(comparison.fig5())
    # The paper reports a lower Naive/Greedy gap on Movie (smaller schema).
    _check_shapes(comparison, naive_factor=3)
