"""Smoke tests for the experiment drivers (tiny scale).

The full-shape assertions live in ``benchmarks/``; these tests verify
the drivers run end to end and produce structurally sane output fast.
"""

import pytest

from types import SimpleNamespace

from repro.datasets import dblp_schema, generate_dblp
from repro.experiments import (FIG4_VARIANTS, FIG7_VARIANTS, FIG8_VARIANTS,
                               FIG9_VARIANTS, DatasetBundle, characterize,
                               compare_algorithms, fig7_table, fig8_tables,
                               fig9_tables, format_series, format_table,
                               measure_design, run_motivating_example,
                               tuned_hybrid_baseline)
from repro.mapping import derive_schema, hybrid_inlining
from repro.physdesign import Configuration
from repro.search import translate_workload
from repro.workload import Workload


#: The Figs. 4-6 table with Naive-Greedy capped at one round.
ONE_NAIVE_ROUND = {**FIG4_VARIANTS,
                   "naive-greedy": ("naive-greedy", {"max_rounds": 1})}


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

    def test_measure_design_loads_the_documents_it_is_given(self):
        """The harness once cached loaded databases keyed on
        ``id(docs)`` without keeping ``docs`` alive, so a collected
        document's id could be reused and another document's database
        handed back. There is no cache: every measurement loads."""
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        workload = Workload.from_strings("titles", ["//inproceedings/title"])
        design = SimpleNamespace(
            schema=schema, configuration=Configuration(),
            sql_queries=translate_workload(workload, schema))

        def cost(docs):
            return measure_design(design, SimpleNamespace(docs=docs))

        expected = {n: cost(generate_dblp(n, seed=1)) for n in (5, 90)}
        assert expected[5] < expected[90]
        # One object identity, two contents: the id-keyed cache
        # answered the second call with the first call's database.
        docs = [generate_dblp(5, seed=1)]
        assert cost(docs) == expected[5]
        docs[:] = [generate_dblp(90, seed=1)]
        assert cost(docs) == expected[90]

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
        comparison = compare_algorithms(tiny_dblp, workloads, ONE_NAIVE_ROUND)
        assert {run.variant for run in comparison.runs} == set(FIG4_VARIANTS)
        assert comparison.fig4()
        assert comparison.fig5()
        assert comparison.fig6()

    def test_naive_skipped_on_large_workloads(self, tiny_dblp):
        workloads = [tiny_dblp.workload_generator(seed=3).generate(4)]
        comparison = compare_algorithms(tiny_dblp, workloads,
                                        ONE_NAIVE_ROUND, naive_max_queries=2)
        assert "naive-greedy" not in {r.variant for r in comparison.runs}

    def test_series_divides_by_another_variant(self, tiny_dblp):
        workloads = [tiny_dblp.workload_generator(seed=2).generate(3)]
        variants = {label: FIG4_VARIANTS[label]
                    for label in ("greedy", "two-step")}
        comparison = compare_algorithms(tiny_dblp, workloads, variants)
        name = workloads[0].name
        runs = {run.variant: run for run in comparison.runs}
        times = comparison.series("wall_time", per="two-step")
        assert times["two-step"] == {name: 1.0}
        assert times["greedy"][name] == pytest.approx(
            runs["greedy"].wall_time / runs["two-step"].wall_time)
        assert list(comparison.series("transformations", ["greedy"])) == \
            ["greedy"]

    def test_fig7_variant_table(self, tiny_dblp):
        workloads = [tiny_dblp.workload_generator(seed=5).generate(3)]
        comparison = compare_algorithms(tiny_dblp, workloads,
                                        FIG7_VARIANTS)
        assert [run.variant for run in comparison.runs] == \
            list(FIG7_VARIANTS)
        quality = comparison.series("normalized_cost")
        assert all(value > 0 for series in quality.values()
                   for value in series.values())
        assert "all-rules speed-up" in fig7_table(comparison)

    def test_fig8_variant_table(self, tiny_movie):
        workloads = [tiny_movie.workload_generator(seed=6).generate(3)]
        comparison = compare_algorithms(tiny_movie, workloads, FIG8_VARIANTS)
        name = workloads[0].name
        assert comparison.series("wall_time", per="none")["none"] == \
            {name: 1.0}
        quality = comparison.series("normalized_cost")
        assert quality["greedy"][name] <= quality["none"][name] * 1.05
        assert "Fig. 8b (Movie)" in fig8_tables(comparison)

    def test_fig9_driver(self, tiny_dblp):
        workloads = [tiny_dblp.workload_generator(seed=4).generate(3)]
        comparison = compare_algorithms(tiny_dblp, workloads, FIG9_VARIANTS)
        speedup = comparison.series("wall_time", ["without derivation"],
                                    per="with derivation")
        assert len(speedup["without derivation"]) == 1
        assert speedup["without derivation"][workloads[0].name] > 0
        assert fig9_tables(comparison)

