"""Smoke tests for the experiment drivers (tiny scale).

The full-shape assertions live in ``benchmarks/``; these tests verify
the drivers run end to end and produce structurally sane output fast.
"""

import pytest

from repro.datasets import dblp_schema, generate_dblp
from repro.experiments import (DatasetBundle, characterize,
                               compare_algorithms, fig7_table, fig8_tables,
                               fig9_tables, format_series, format_table,
                               realize, run_fig9, run_motivating_example,
                               tuned_hybrid_baseline)
from repro.mapping import derive_schema, hybrid_inlining
from repro.physdesign import Configuration


@pytest.fixture(scope="module")
def tiny_dblp():
    return DatasetBundle.dblp(scale=250, seed=23)


@pytest.fixture(scope="module")
def tiny_movie():
    return DatasetBundle.movie(scale=250, seed=23)


class TestReporting:
    def test_format_table(self):
        text = format_table("T", ["a", "b"], [[1, 2.5], ["x", 0.001]],
                            note="n")
        assert "== T ==" in text
        assert "note: n" in text
        assert "2.50" in text

    def test_format_series(self):
        text = format_series("S", "x", {"s1": {"w1": 1.0, "w2": 2.0},
                                        "s2": {"w1": 3.0}})
        assert "w1" in text and "s2" in text


class TestHarness:
    def test_bundles_carry_stats(self, tiny_dblp):
        assert tiny_dblp.stats.total_elements > 0
        assert tiny_dblp.tree.root.name == "dblp"

    def test_bundles_are_looked_up_by_name(self, tiny_movie):
        named = DatasetBundle.named("movie", scale=250, seed=23)
        assert named.name == tiny_movie.name == "Movie"
        assert named.stats.total_elements == tiny_movie.stats.total_elements
        with pytest.raises(ValueError, match="known: dblp, movie"):
            DatasetBundle.named("imdb")

    def test_baseline_is_measurable(self, tiny_dblp):
        workload = tiny_dblp.workload_generator(seed=1).generate(3)
        assert tuned_hybrid_baseline(tiny_dblp, workload) > 0

    def test_realize_loads_the_documents_it_is_given(self):
        """``realize`` used to cache loaded databases keyed on
        ``id(docs)`` without keeping ``docs`` alive, so a collected
        document's id could be reused and another document's database
        handed back. There is no cache now: every call loads."""
        schema = derive_schema(hybrid_inlining(dblp_schema()))

        def rows(docs):
            db = realize(schema, Configuration(), docs)
            return sum(t.row_count for t in db.catalog.base_tables())

        expected = {n: rows(generate_dblp(n, seed=1)) for n in (5, 9)}
        assert expected[5] < expected[9]
        # One object identity, two contents: the id-keyed cache
        # answered the second call with the first call's database.
        docs = [generate_dblp(5, seed=1)]
        assert rows(docs) == expected[5]
        docs[:] = [generate_dblp(9, seed=1)]
        assert rows(docs) == expected[9]

    def test_characterize(self, tiny_dblp, tiny_movie):
        dblp = characterize(tiny_dblp)
        movie = characterize(tiny_movie)
        assert dblp.transformations > dblp.non_subsumed > 0
        assert movie.repetitions >= 2
        assert dblp.shared_types >= 2


class TestDrivers:
    def test_motivating_example_shape(self, tiny_dblp):
        result = run_motivating_example(tiny_dblp)
        assert result.mapping2_tuned < result.mapping1_tuned
        assert len(result.rows()) == 2

    def test_comparison_runs_all_algorithms(self, tiny_dblp):
        workloads = [tiny_dblp.workload_generator(seed=2).generate(3)]
        comparison = compare_algorithms(tiny_dblp, workloads,
                                        naive_max_rounds=1)
        algorithms = {run.algorithm for run in comparison.runs}
        assert algorithms == {"greedy", "naive-greedy", "two-step"}
        assert comparison.fig4()
        assert comparison.fig5()
        assert comparison.fig6()

    def test_naive_skipped_on_large_workloads(self, tiny_dblp):
        workloads = [tiny_dblp.workload_generator(seed=3).generate(4)]
        comparison = compare_algorithms(
            tiny_dblp, workloads, naive_max_queries=2, naive_max_rounds=1)
        assert "naive-greedy" not in {r.algorithm for r in comparison.runs}

    def test_fig9_driver(self, tiny_dblp):
        workloads = [tiny_dblp.workload_generator(seed=4).generate(3)]
        rows = run_fig9(tiny_dblp, workloads)
        assert len(rows) == 1
        assert rows[0].speedup > 0
        assert fig9_tables(rows, "DBLP")
