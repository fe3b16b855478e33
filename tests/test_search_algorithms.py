"""Integration tests for the three search algorithms.

These assert the paper's qualitative claims at small scale:

* all three produce feasible designs whose translated workload returns
  correct results on real data;
* Greedy searches far fewer transformations than Naive-Greedy;
* Greedy's design quality (measured executed cost) is at least
  comparable to Naive-Greedy's and beats Two-Step's on split-friendly
  workloads.
"""

import dataclasses
import math

import pytest

from repro.backends import render_query
from repro.engine import derive_view_stats
from repro.errors import SearchError
from repro.experiments import (DatasetBundle, measure_design,
                               tuned_hybrid_baseline)
from repro.mapping import PRESETS, derive_schema, hybrid_inlining
from repro.obs import Tracer
from repro.search import (ALGORITHMS, GreedySearch, MappingEvaluator,
                          NaiveGreedySearch, TwoStepSearch,
                          build_stats_only_database, design_for,
                          mapping_digest)
from repro.workload import Workload


@pytest.fixture(scope="module")
def bundle():
    return DatasetBundle.dblp(scale=700, seed=17)


@pytest.fixture(scope="module")
def workload(bundle):
    return bundle.workload_generator(seed=2).generate(6)


@pytest.fixture(scope="module")
def greedy_result(bundle, workload):
    return GreedySearch(bundle.tree, workload, bundle.stats,
                        bundle.storage_bound).run()


class TestGreedy:
    def test_produces_feasible_design(self, greedy_result):
        assert greedy_result.estimated_cost > 0
        assert greedy_result.mapping is not None
        greedy_result.mapping.validate()

    def test_measured_cost_improves_on_hybrid(self, bundle, workload,
                                              greedy_result):
        baseline = tuned_hybrid_baseline(bundle, workload)
        measured = measure_design(greedy_result, bundle)
        assert measured <= baseline * 1.05

    def test_counters_populated(self, greedy_result):
        counters = greedy_result.counters
        assert counters.tuner_calls >= 1
        assert counters.wall_time > 0
        assert counters.transformations_searched >= 0

    def test_describe_is_readable(self, greedy_result):
        text = greedy_result.describe()
        assert "algorithm: greedy" in text
        assert "relational schema" in text

    def test_ablation_flags(self, bundle, workload):
        no_derivation = GreedySearch(
            bundle.tree, workload, bundle.stats, bundle.storage_bound,
            use_cost_derivation=False).run()
        assert no_derivation.counters.derived_query_costs == 0
        no_merge = GreedySearch(
            bundle.tree, workload, bundle.stats, bundle.storage_bound,
            merging="none").run()
        assert no_merge.estimated_cost > 0
        with pytest.raises(ValueError):
            GreedySearch(bundle.tree, workload, bundle.stats,
                         merging="bogus")


class TestNaiveGreedy:
    def test_searches_many_more_transformations(self, bundle, workload,
                                                greedy_result):
        naive = NaiveGreedySearch(bundle.tree, workload, bundle.stats,
                                  bundle.storage_bound, max_rounds=2).run()
        # Even capped at two rounds, Naive enumerates several times what
        # the full Greedy searches in its *entire* run.
        assert naive.counters.transformations_searched > \
            3 * max(greedy_result.counters.transformations_searched, 1)

    def test_quality_comparable_to_greedy(self, bundle, workload,
                                          greedy_result):
        naive = NaiveGreedySearch(bundle.tree, workload, bundle.stats,
                                  bundle.storage_bound, max_rounds=3).run()
        greedy_measured = measure_design(greedy_result, bundle)
        naive_measured = measure_design(naive, bundle)
        # The two should land in the same ballpark (paper Fig. 4).
        assert greedy_measured <= naive_measured * 1.5


class TestTwoStep:
    def test_runs_and_is_feasible(self, bundle, workload):
        result = TwoStepSearch(bundle.tree, workload, bundle.stats,
                               bundle.storage_bound, max_rounds=4).run()
        assert result.estimated_cost > 0
        result.mapping.validate()

    def test_split_friendly_workload_beats_twostep(self, bundle):
        # A workload that loves repetition split + covering indexes: the
        # motivating example. Greedy must beat Two-Step on it (Fig. 4).
        workload = Workload.from_strings("split-friendly", [
            '/dblp/inproceedings[booktitle = "SIGMOD CONFERENCE"]'
            '/(title | year | author)',
            '/dblp/inproceedings[booktitle = "VLDB"]/(title | author)',
        ])
        greedy = GreedySearch(bundle.tree, workload, bundle.stats,
                              bundle.storage_bound).run()
        twostep = TwoStepSearch(bundle.tree, workload, bundle.stats,
                                bundle.storage_bound, max_rounds=4).run()
        greedy_measured = measure_design(greedy, bundle)
        twostep_measured = measure_design(twostep, bundle)
        assert greedy_measured < twostep_measured


#: What each search returns on DBLP and Movie at scale 150 (seed 7,
#: workload seed 3, four queries): estimated cost, rounds, applied
#: transformations, mapping digest and the counters that are not zero.
#: ``optimizer_calls`` counts every what-if costing the advisor makes.
PINNED = {
    ("greedy", "dblp"): (
        11.726356147871893, 1, "9c74625808eb",
        ["type_split(#10 -> author_s10)",
         "union_distribute(implicit #17,#23)",
         "repetition_split(#20, k=5)", "repetition_split(#9, k=3)"],
        dict(transformations_searched=7, mappings_evaluated=8,
             cache_hits=1, tuner_calls=8, optimizer_calls=559,
             derived_query_costs=6)),
    ("naive-greedy", "dblp"): (
        18.696107311337357, 3, "eed2c142b835",
        ["outline(#3 as title)", "type_split(#10 -> author_s10)"],
        dict(transformations_searched=86, mappings_evaluated=87,
             tuner_calls=87, optimizer_calls=6117)),
    ("two-step", "dblp"): (
        12.921373089502694, 4, "32ce45e38d32",
        ["union_distribute(implicit #23)", "repetition_split(#9, k=5)",
         "type_split(#10 -> author_s10)"],
        dict(transformations_searched=115, mappings_evaluated=117,
             tuner_calls=1, optimizer_calls=538)),
    ("greedy", "movie"): (
        11.6972253876157, 2, "82d19a8ade05",
        # The net design: union_factorize(implicit #5) won round 2 and
        # took M0's union_distribute(implicit #5) off.
        ["union_distribute(choice #14)", "repetition_split(#8, k=2)"],
        dict(transformations_searched=8, mappings_evaluated=9,
             cache_hits=2, tuner_calls=9, optimizer_calls=470,
             derived_query_costs=12)),
    ("naive-greedy", "movie"): (
        15.058991807808168, 2, "efa343d114ec",
        ["union_distribute(choice #14)"],
        dict(transformations_searched=22, mappings_evaluated=23,
             tuner_calls=23, optimizer_calls=1731)),
    ("two-step", "movie"): (
        15.058991807808168, 2, "efa343d114ec",
        ["union_distribute(choice #14)"],
        dict(transformations_searched=22, mappings_evaluated=24,
             tuner_calls=1, optimizer_calls=162)),
}


class TestPinnedResults:
    """What each search returns and counts, pinned, so a change to the
    skeleton the three share cannot move a design or a count unseen."""

    @pytest.fixture(scope="class", params=["dblp", "movie"])
    def problem(self, request):
        small = DatasetBundle.named(request.param, scale=150, seed=7)
        return request.param, small, \
            small.workload_generator(seed=3).generate(4)

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_result_and_counters(self, problem, algorithm):
        dataset, small, workload = problem
        cost, rounds, digest, applied, nonzero = PINNED[algorithm, dataset]
        result = ALGORITHMS[algorithm](small.tree, workload, small.stats,
                                       small.storage_bound).run()
        assert result.estimated_cost == pytest.approx(cost, rel=1e-12)
        assert result.rounds == rounds
        assert result.applied == applied
        assert mapping_digest(result.mapping) == digest
        counters = dataclasses.asdict(result.counters)
        del counters["wall_time"]
        assert counters == {**dict.fromkeys(counters, 0), **nonzero}

    @pytest.mark.parametrize("algorithm", ["greedy", "naive-greedy"])
    def test_the_design_holds_every_structure_its_cost_assumed(
            self, problem, algorithm):
        """Re-costing the returned design from scratch gives the cost
        the search reports: no structure a query's cost assumed was
        left out of the configuration. (DBLP 300 Greedy once reported
        19.0243 for a design that re-costs at 20.2216.)"""
        dataset = problem[0]
        larger = DatasetBundle.named(dataset, scale=300, seed=7)
        result = ALGORITHMS[algorithm](
            larger.tree, larger.workload_generator(seed=3).generate(6),
            larger.stats, larger.storage_bound, max_rounds=3).run()
        configuration = result.configuration
        db = build_stats_only_database(result.schema, larger.stats)
        for view in configuration.views:
            db.stats.set_table(view.name, derive_view_stats(view, db.stats))
        what_if = db.what_if(configuration.indexes, configuration.views)
        assert sum(weight * db.estimate_under(what_if, query).est_cost
                   for query, weight in result.sql_queries) == \
            pytest.approx(result.estimated_cost, rel=1e-9)

    def test_two_step_refuses_checkpoint_options(self, problem, tmp_path):
        _, small, workload = problem
        for options in ({"checkpoint": tmp_path}, {"resume": True},
                        {"checkpoint_every": 2}):
            with pytest.raises(TypeError):
                TwoStepSearch(small.tree, workload, small.stats, **options)


class TestInfeasibleBound:
    """A storage bound below the base mapping's own data is refused by
    name by every search, never by an ``assert`` or a bare error."""

    @pytest.mark.parametrize("search", [GreedySearch, NaiveGreedySearch,
                                        TwoStepSearch])
    def test_names_the_bound_and_the_base_mappings_size(self, search):
        small = DatasetBundle.dblp(scale=60, seed=7)
        workload = small.workload_generator(seed=3).generate(3)
        with pytest.raises(SearchError, match=(
                r"^storage bound of 1000 bytes is below the \d+ bytes of "
                r"data of the base mapping$")):
            search(small.tree, workload, small.stats, 1000).run()


class TestBindingBound:
    """A bound that M0 (every selected split applied) exceeds: Greedy
    starts from the base mapping and tries the splits as forward moves,
    so it is not left with the untransformed design."""

    @pytest.fixture(scope="class")
    def problem(self):
        """(bundle, workload, model bytes of the hybrid mapping's data)"""
        big = DatasetBundle.dblp(scale=2000, seed=7)
        base_bytes = build_stats_only_database(
            derive_schema(hybrid_inlining(big.tree)),
            big.stats).catalog.total_data_bytes()
        return big, big.workload_generator(seed=43).generate(10), base_bytes

    def test_greedy_keeps_up_with_naive_greedy_when_m0_does_not_fit(
            self, problem):
        big, workload, base_bytes = problem
        bound = int(1.02 * base_bytes)
        greedy = GreedySearch(big.tree, workload, big.stats, bound).run()
        naive = NaiveGreedySearch(big.tree, workload, big.stats, bound,
                                  include_subsumed=False).run()
        assert greedy.estimated_cost <= naive.estimated_cost * 1.05
        assert greedy.applied

    def test_applied_is_the_net_design(self, problem):
        """At 1.10 x M0 fits, and round 1's winner merges back M0's
        repetition split: ``applied`` names the design that is left —
        the one 1.02 x reaches — and the trace keeps the path."""
        big, workload, base_bytes = problem
        greedy = GreedySearch(big.tree, workload, big.stats,
                              int(1.10 * base_bytes), tracer=Tracer()).run()
        assert greedy.applied == ["union_distribute(implicit #23)"]
        assert mapping_digest(greedy.mapping) == "06d77e105b12"
        assert [span.attributes.get("winner")
                for span in greedy.trace.children
                if span.name == "round"][0] == "repetition_merge(#20)"


def _fingerprint(schema, configuration, sql_queries):
    return (schema.signature(), configuration.describe(),
            [(render_query(query), weight) for query, weight in sql_queries])


class TestDesignFor:
    """``design_for`` is the one way from a design name to a design.

    The references below are the by-hand assemblies it replaced (the
    comparator's ``_design_for``, the CLI's ``_serve_design``, the
    harness's ``tuned_hybrid_baseline``): tune the preset through a
    ``MappingEvaluator``, or run the search class directly.
    """

    @pytest.fixture(scope="class", params=["dblp", "movie"])
    def problem(self, request):
        small = DatasetBundle.named(request.param, scale=60, seed=7)
        return small, small.workload_generator(seed=3).generate(6)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_is_the_evaluators_tuning(self, problem, preset):
        small, workload = problem
        design = design_for(preset, small.tree, workload, small.stats,
                            small.storage_bound)
        reference = MappingEvaluator(
            workload, small.stats, small.storage_bound).evaluate(
                PRESETS[preset](small.tree))
        assert _fingerprint(design.schema, design.configuration,
                            design.sql_queries) == _fingerprint(
            reference.schema, reference.tuning.configuration,
            reference.sql_queries)
        assert design.estimated_cost == reference.total_cost
        assert design.algorithm == preset and design.rounds == 0

    def test_greedy_is_the_search(self, problem):
        small, workload = problem
        design = design_for("greedy", small.tree, workload, small.stats,
                            small.storage_bound)
        reference = GreedySearch(small.tree, workload, small.stats,
                                 storage_bound=small.storage_bound).run()
        assert _fingerprint(design.schema, design.configuration,
                            design.sql_queries) == _fingerprint(
            reference.schema, reference.configuration,
            reference.sql_queries)
        assert design.estimated_cost == reference.estimated_cost
        assert design.applied == reference.applied

    def test_search_options_reach_the_search(self, bundle, workload):
        design = design_for("naive-greedy", bundle.tree, workload,
                            bundle.stats, bundle.storage_bound,
                            max_rounds=1)
        assert design.algorithm == "naive-greedy" and design.rounds <= 1

    def test_infeasible_preset_falls_back_to_the_bare_design(self, bundle,
                                                             workload):
        # A bound below the data size: the advisor cannot fit anything.
        design = design_for("hybrid", bundle.tree, workload, bundle.stats,
                            storage_bound=1)
        assert math.isinf(design.estimated_cost)
        assert len(design.configuration) == 0
        assert len(design.sql_queries) == len(workload)

    def test_names(self, bundle, workload):
        assert list(ALGORITHMS) == ["greedy", "naive-greedy", "two-step"]
        assert not set(ALGORITHMS) & set(PRESETS)
        with pytest.raises(ValueError, match="zigzag"):
            design_for("zigzag", bundle.tree, workload, bundle.stats)
