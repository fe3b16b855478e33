"""Fig. 6 — number of transformations searched by Greedy vs.
Naive-Greedy.

Paper shapes asserted: Greedy searches several-to-tens of times fewer
transformations than Naive-Greedy (10-40x on DBLP, 5-10x on Movie), and
the gap is larger on the larger schema (DBLP).
"""

import statistics

from conftest import build_comparison


def _ratios(comparison):
    greedy = comparison.by_variant("greedy")
    naive = comparison.by_variant("naive-greedy")
    return [naive[name].transformations / max(greedy[name].transformations, 1)
            for name in naive if name in greedy]


def test_fig6_dblp(benchmark, dblp_bundle, comparison_cache, emit):
    comparison = benchmark.pedantic(
        lambda: build_comparison(dblp_bundle, comparison_cache),
        rounds=1, iterations=1)
    emit(comparison.fig6())
    ratios = _ratios(comparison)
    if ratios:
        assert statistics.median(ratios) >= 5


def test_fig6_movie(benchmark, movie_bundle, comparison_cache, emit):
    comparison = benchmark.pedantic(
        lambda: build_comparison(movie_bundle, comparison_cache),
        rounds=1, iterations=1)
    emit(comparison.fig6())
    ratios = _ratios(comparison)
    if ratios:
        assert statistics.median(ratios) >= 2
