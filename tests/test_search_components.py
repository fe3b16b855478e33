"""Unit tests for search components: evaluator, candidate selection,
candidate merging, cost derivation."""

import pytest

from repro.datasets import (dblp_schema, generate_dblp, generate_movies,
                            movie_schema)
from repro.mapping import (RepetitionSplit, TypeSplit, UnionDistribute,
                           UnionDistribution, collect_statistics,
                           hybrid_inlining)
from repro.search import (CandidateMerger, CandidateSelector, CostDerivation,
                          MappingEvaluator, affected_annotations,
                          apply_splits, build_stats_only_database)
from repro.workload import Workload
from repro.xsd import NodeKind


@pytest.fixture(scope="module")
def dblp_bundle():
    tree = dblp_schema()
    doc = generate_dblp(800, seed=13)
    return tree, collect_statistics(tree, doc)


@pytest.fixture(scope="module")
def movie_bundle():
    tree = movie_schema()
    doc = generate_movies(800, seed=13)
    return tree, collect_statistics(tree, doc)


class TestEvaluator:
    def test_evaluate_returns_cost_and_config(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", [
            '/dblp/inproceedings[booktitle = "VLDB"]/(title | year)'])
        evaluator = MappingEvaluator(wl, stats, storage_bound=1 << 29)
        result = evaluator.evaluate(hybrid_inlining(tree))
        assert result is not None
        assert result.total_cost > 0
        assert len(result.tuning.reports) == 1

    def test_cache_hits_on_duplicate_mapping(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", ["/dblp/inproceedings/title"])
        evaluator = MappingEvaluator(wl, stats)
        mapping = hybrid_inlining(tree)
        evaluator.evaluate(mapping)
        evaluator.evaluate(mapping)
        assert evaluator.counters.cache_hits == 1
        assert evaluator.counters.mappings_evaluated == 1

    def test_stats_only_database_has_no_data(self, dblp_bundle):
        tree, stats = dblp_bundle
        from repro.mapping import derive_schema
        schema = derive_schema(hybrid_inlining(tree))
        db = build_stats_only_database(schema, stats)
        inproc = db.catalog.table("inproc")
        assert not inproc.is_materialized
        assert inproc.row_count > 0  # derived estimate present

    def test_evaluate_partial_reuses_costs(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", [
            "/dblp/inproceedings/title", "/dblp/book/publisher"])
        evaluator = MappingEvaluator(wl, stats)
        mapping = hybrid_inlining(tree)
        full = evaluator.evaluate(mapping)
        partial = evaluator.evaluate_partial_many(
            [(mapping, {0: full.tuning.reports[0].cost}, None)])[0]
        assert partial is not None
        assert partial.total_cost == pytest.approx(full.total_cost, rel=0.25)

    def test_partial_with_nothing_reused_is_the_exact_evaluation(
            self, dblp_bundle):
        """One memo: a partial item ``(m, {}, …)`` asks for exactly what
        ``evaluate(m)`` already answered, so it is a memo hit on the
        same object rather than a second costing."""
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", [
            "/dblp/inproceedings/title", "/dblp/book/publisher"])
        evaluator = MappingEvaluator(wl, stats)
        mapping = hybrid_inlining(tree)
        full = evaluator.evaluate(mapping)
        assert evaluator.evaluate_partial_many(
            [(mapping, {}, None)])[0] is full
        assert evaluator.evaluate_partial_many(
            [(mapping, {}, full)])[0] is full
        assert evaluator.counters.mappings_evaluated == 1
        assert evaluator.counters.cache_hits == 2

    def test_partial_reports_align_with_full_workload(self, dblp_bundle):
        """Regression: partial evaluation used to return a report list
        covering only the re-tuned queries, while every consumer
        (``TuningResult.cost_of``, ``CostDerivation.reusable_costs``)
        indexes reports by full-workload position."""
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", [
            "/dblp/inproceedings/title", "/dblp/book/publisher",
            "/dblp/inproceedings/author"])
        evaluator = MappingEvaluator(wl, stats)
        mapping = hybrid_inlining(tree)
        full = evaluator.evaluate(mapping)
        reuse = {1: full.tuning.reports[1].cost}
        partial = evaluator.evaluate_partial_many(
            [(mapping, reuse, full)])[0]
        assert partial is not None
        # One report per workload query, aligned by position.
        assert len(partial.tuning.reports) == len(partial.sql_queries)
        for (query, _), report in zip(partial.sql_queries,
                                      partial.tuning.reports):
            assert report.query is query
        # The reused slot carries the derived cost and the base
        # evaluation's objects_used (needed by the repetition-split
        # derivation rule downstream).
        assert partial.tuning.cost_of(1) == reuse[1]
        assert partial.tuning.reports[1].objects_used == \
            full.tuning.reports[1].objects_used
        # The total is consistent with the per-query reports.
        assert partial.total_cost == pytest.approx(
            sum(weight * report.cost
                for (_, weight), report in zip(partial.sql_queries,
                                               partial.tuning.reports)))
        # Feeding the partial result back through cost derivation now
        # reads the right query's cost for every index.
        selected = CandidateSelector(mapping, stats).select(wl)
        derivation = CostDerivation()
        for transformation in (list(selected.splits)
                               + list(selected.merges))[:3]:
            derived = derivation.reusable_costs(transformation, partial)
            for i, cost in derived.items():
                assert cost == partial.tuning.cost_of(i)

    def test_partial_evaluation_does_not_mutate_advisor_result(
            self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", [
            "/dblp/inproceedings/title", "/dblp/book/publisher"])
        evaluator = MappingEvaluator(wl, stats)
        mapping = hybrid_inlining(tree)
        full = evaluator.evaluate(mapping)
        before = full.tuning.total_cost
        evaluator.evaluate_partial_many(
            [(mapping, {0: full.tuning.reports[0].cost}, full)])
        assert full.tuning.total_cost == before


class TestCandidateSelection:
    def test_repetition_split_selected_for_author_query(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", [
            '/dblp/inproceedings[booktitle = "VLDB"]/(title | author)'])
        selected = CandidateSelector(hybrid_inlining(tree), stats).select(wl)
        assert any(isinstance(t, RepetitionSplit) for t in selected.splits)

    def test_split_count_matches_skew(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", ["/dblp/inproceedings/author"])
        selected = CandidateSelector(hybrid_inlining(tree), stats).select(wl)
        splits = [t for t in selected.splits
                  if isinstance(t, RepetitionSplit)]
        assert splits and splits[0].count <= 5

    def test_implicit_union_for_optional_projection(self, movie_bundle):
        tree, stats = movie_bundle
        wl = Workload.from_strings("w", ["//movie/avg_rating"])
        selected = CandidateSelector(hybrid_inlining(tree), stats).select(wl)
        implicit = [d for d in selected.implicit_unions]
        assert len(implicit) == 1

    def test_no_implicit_union_when_common_column_accessed(self, movie_bundle):
        tree, stats = movie_bundle
        wl = Workload.from_strings("w", ["//movie/(title | avg_rating)"])
        selected = CandidateSelector(hybrid_inlining(tree), stats).select(wl)
        assert not selected.implicit_unions

    def test_choice_distribution_for_single_branch_access(self, movie_bundle):
        tree, stats = movie_bundle
        wl = Workload.from_strings("w", ["//movie/box_office"])
        selected = CandidateSelector(hybrid_inlining(tree), stats).select(wl)
        choices = [t for t in selected.splits
                   if isinstance(t, UnionDistribute)
                   and not t.distribution.is_implicit]
        assert len(choices) == 1

    def test_type_split_for_pinned_shared_type(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", ["/dblp/inproceedings/author"])
        selected = CandidateSelector(hybrid_inlining(tree), stats).select(wl)
        assert any(isinstance(t, TypeSplit) for t in selected.splits)

    def test_subsumed_never_selected(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", [
            '/dblp/inproceedings[year = "2000"]/(title | ee | author)'])
        selected = CandidateSelector(hybrid_inlining(tree), stats).select(wl)
        assert all(not t.subsumed for t in selected.all())

    def test_apply_splits_builds_valid_m0(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", [
            '/dblp/inproceedings[booktitle = "VLDB"]/(title | author | ee)'])
        selected = CandidateSelector(hybrid_inlining(tree), stats).select(wl)
        m0, applied = apply_splits(hybrid_inlining(tree), selected.splits)
        m0.validate()
        assert applied


class TestCandidateMerging:
    def paper_example(self, movie_bundle):
        """Q1: //movie/year, Q2: //movie/avg_rating (Section 4.7)."""
        tree, stats = movie_bundle
        wl = Workload.from_strings("w", ["//movie/year",
                                         "//movie/avg_rating"])
        mapping = hybrid_inlining(tree)
        year_opt = tree.parent(
            tree.find_tag_by_path(("movies", "movie", "year")))
        rating_opt = tree.parent(
            tree.find_tag_by_path(("movies", "movie", "avg_rating")))
        c1 = UnionDistribution(optional_ids=frozenset({year_opt.node_id}))
        c2 = UnionDistribution(optional_ids=frozenset({rating_opt.node_id}))
        return tree, stats, wl, mapping, c1, c2

    def test_greedy_merging_produces_c3(self, movie_bundle):
        tree, stats, wl, mapping, c1, c2 = self.paper_example(movie_bundle)
        merger = CandidateMerger(mapping, stats, wl)
        merged = merger.merge_greedy([c1, c2])
        assert len(merged) == 1
        assert merged[0].optional_ids == c1.optional_ids | c2.optional_ids

    def test_merged_candidate_benefits_both_queries(self, movie_bundle):
        tree, stats, wl, mapping, c1, c2 = self.paper_example(movie_bundle)
        merger = CandidateMerger(mapping, stats, wl)
        c3 = UnionDistribution(
            optional_ids=c1.optional_ids | c2.optional_ids)
        # c1 helps Q1 but not Q2; c3 helps both (the paper's argument).
        assert merger.query_benefit(c1, wl.queries[0].query) > 0
        assert merger.query_benefit(c1, wl.queries[1].query) == 0
        assert merger.query_benefit(c3, wl.queries[0].query) > 0
        assert merger.query_benefit(c3, wl.queries[1].query) > 0

    def test_subset_candidates_not_mergeable(self, movie_bundle):
        tree, stats, wl, mapping, c1, c2 = self.paper_example(movie_bundle)
        merger = CandidateMerger(mapping, stats, wl)
        c3 = UnionDistribution(
            optional_ids=c1.optional_ids | c2.optional_ids)
        assert merger._mergeable(c1, c3) is None

    def test_exhaustive_matches_or_beats_greedy(self, movie_bundle):
        tree, stats, wl, mapping, c1, c2 = self.paper_example(movie_bundle)
        merger = CandidateMerger(mapping, stats, wl)
        greedy = merger.merge_greedy([c1, c2])
        exhaustive = merger.merge_exhaustive([c1, c2])
        assert {d.optional_ids for d in greedy} == \
            {d.optional_ids for d in exhaustive}


class TestCostDerivation:
    def test_irrelevant_relation_rule(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", [
            "/dblp/book/publisher",                  # never touches authors
            "/dblp/inproceedings/(title | author)",  # touches authors
        ])
        evaluator = MappingEvaluator(wl, stats)
        evaluated = evaluator.evaluate(hybrid_inlining(tree))
        author = tree.find_tag_by_path(("dblp", "inproceedings", "author"))
        rep = tree.parent(author)
        transformation = RepetitionSplit(rep.node_id, 5)
        reuse = CostDerivation().reusable_costs(transformation, evaluated)
        assert 0 in reuse          # book query untouched
        assert 1 not in reuse      # author query must be re-costed

    def test_disabled_derivation_reuses_nothing(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", ["/dblp/book/publisher"])
        evaluator = MappingEvaluator(wl, stats)
        evaluated = evaluator.evaluate(hybrid_inlining(tree))
        author = tree.find_tag_by_path(("dblp", "inproceedings", "author"))
        rep = tree.parent(author)
        reuse = CostDerivation(enabled=False).reusable_costs(
            RepetitionSplit(rep.node_id, 5), evaluated)
        assert reuse == {}

    def test_affected_annotations_repetition_split(self, dblp_bundle):
        tree, stats = dblp_bundle
        wl = Workload.from_strings("w", ["/dblp/inproceedings/title"])
        evaluator = MappingEvaluator(wl, stats)
        evaluated = evaluator.evaluate(hybrid_inlining(tree))
        author = tree.find_tag_by_path(("dblp", "inproceedings", "author"))
        rep = tree.parent(author)
        affected = affected_annotations(RepetitionSplit(rep.node_id, 5),
                                        evaluated)
        assert affected == {"author", "inproc"}

    def test_affected_annotations_union(self, movie_bundle):
        tree, stats = movie_bundle
        wl = Workload.from_strings("w", ["//movie/title"])
        evaluator = MappingEvaluator(wl, stats)
        evaluated = evaluator.evaluate(hybrid_inlining(tree))
        choice = tree.nodes_of_kind(NodeKind.CHOICE)[0]
        affected = affected_annotations(
            UnionDistribute(UnionDistribution(choice_id=choice.node_id)),
            evaluated)
        assert affected == {"movie"}
