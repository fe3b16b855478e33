"""Parallel candidate costing.

The hard guarantee is **determinism**: a search with ``jobs=4``
produces a DesignResult identical to the serial run (mapping digest,
applied log, estimated cost, configuration, and every counter a worker
advances) on both bundled datasets.

Plus the greedy-loop regression (a round winner rejected by the exact
re-check must stay eligible for later rounds) and the feasible/
infeasible split of the in-memory memo's hit counters.
"""

import dataclasses

import pytest

from repro.experiments import DatasetBundle
from repro.mapping import hybrid_inlining
from repro.obs import Tracer, find_spans
from repro.search import (GreedySearch, MappingEvaluator, NaiveGreedySearch,
                          mapping_digest, resolve_jobs)
from repro.search.candidate_selection import CandidateSet
from repro.search.parallel import _COUNTER_FIELDS
from repro.workload import Workload


@pytest.fixture(scope="module")
def problems():
    out = {}
    for name in ("dblp", "movie"):
        maker = getattr(DatasetBundle, name)
        bundle = maker(scale=150, seed=11)
        workload = bundle.workload_generator(seed=5).generate(4)
        out[name] = (bundle, workload)
    return out


@pytest.fixture()
def small_problem(problems):
    bundle, _ = problems["dblp"]
    workload = Workload.from_strings("w", ["/dblp/inproceedings/title"])
    return bundle, workload


def _result_fingerprint(result):
    """The design and every counter a pool worker advances: a worker
    must do exactly the work the serial run does."""
    return (mapping_digest(result.mapping), tuple(result.applied),
            result.estimated_cost, result.configuration.describe(),
            {name: getattr(result.counters, name)
             for name in _COUNTER_FIELDS})


# ----------------------------------------------------------------------
# Determinism: parallel == serial
# ----------------------------------------------------------------------


class TestParallelDeterminism:
    @pytest.mark.parametrize("dataset", ["dblp", "movie"])
    def test_greedy_jobs4_identical_to_serial(self, problems, dataset):
        bundle, workload = problems[dataset]
        serial = GreedySearch(bundle.tree, workload, bundle.stats,
                              bundle.storage_bound).run()
        parallel = GreedySearch(bundle.tree, workload, bundle.stats,
                                bundle.storage_bound, jobs=4).run()
        assert _result_fingerprint(parallel) == _result_fingerprint(serial)

    @pytest.mark.parametrize("dataset", ["dblp", "movie"])
    def test_naive_jobs4_identical_to_serial(self, problems, dataset):
        bundle, workload = problems[dataset]
        serial = NaiveGreedySearch(bundle.tree, workload, bundle.stats,
                                   bundle.storage_bound, max_rounds=2).run()
        parallel = NaiveGreedySearch(bundle.tree, workload, bundle.stats,
                                     bundle.storage_bound, max_rounds=2,
                                     jobs=4).run()
        assert _result_fingerprint(parallel) == _result_fingerprint(serial)

    def test_parallel_preserves_observability_invariants(self, problems):
        """Worker spans/counters are grafted back, so the trace
        invariants tier-1 asserts for serial runs hold at jobs=2 too."""
        bundle, workload = problems["dblp"]
        tracer = Tracer()
        result = GreedySearch(bundle.tree, workload, bundle.stats,
                              bundle.storage_bound, jobs=2,
                              tracer=tracer).run()
        counters = result.counters
        evaluate_spans = (find_spans(tracer, "evaluate.exact")
                          + find_spans(tracer, "evaluate.partial"))
        assert counters.mappings_evaluated == len(evaluate_spans)
        hits = sum(1 for span in self._iter_events(tracer)
                   if span.name == "cache_hit")
        assert counters.cache_hits == hits

    @staticmethod
    def _iter_events(tracer):
        from repro.obs import iter_spans
        for span in iter_spans(tracer):
            yield from span.events
        yield from tracer.events


#: ``(mapping digest, applied, estimated_cost, mappings_evaluated,
#: cache_hits, cache_hits_infeasible, tuner_calls, optimizer_calls,
#: derived_query_costs)`` of the greedy search on the ``problems``
#: fixture, serial or through the worker pool, as produced before the
#: evaluator's two costing bodies and two memos were folded into one;
#: ``applied`` is the net design (a winner that undoes an applied
#: transformation takes it off the list), and ``optimizer_calls`` counts
#: every what-if costing the advisor makes.
_PINNED_SEARCHES = {
    "dblp": ("87d177982c01",
             ("type_split(#10 -> author_s10)",
              "union_distribute(implicit #17,#23)",
              "repetition_split(#9, k=3)"),
             15.650063232812752, 11, 2, 0, 11, 347, 14),
    "movie": ("82d19a8ade05",
              ("union_distribute(choice #14)",
               "repetition_split(#8, k=2)"),
              6.968164966240575, 9, 2, 0, 9, 264, 12),
}


class TestPinnedSearch:
    @pytest.mark.parametrize("dataset", ["dblp", "movie"])
    def test_greedy_does_the_same_work(self, problems, dataset):
        bundle, workload = problems[dataset]
        result = GreedySearch(bundle.tree, workload, bundle.stats,
                              bundle.storage_bound).run()
        counters = result.counters
        assert (mapping_digest(result.mapping), tuple(result.applied),
                result.estimated_cost, counters.mappings_evaluated,
                counters.cache_hits, counters.cache_hits_infeasible,
                counters.tuner_calls, counters.optimizer_calls,
                counters.derived_query_costs) == _PINNED_SEARCHES[dataset]

    def test_greedy_remembers_only_within_its_run(self, small_problem,
                                                  tmp_path):
        bundle, workload = small_problem
        GreedySearch(bundle.tree, workload, bundle.stats, cache=None)
        with pytest.raises(TypeError, match="no persistent cache"):
            GreedySearch(bundle.tree, workload, bundle.stats, cache=tmp_path)


# ----------------------------------------------------------------------
# REPRO_PARALLEL resolution
# ----------------------------------------------------------------------


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "8")
        assert resolve_jobs(3) == 3

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_explicit_non_positive_rejected(self, monkeypatch, jobs):
        # ``--jobs 0`` used to be silently clamped to a serial run,
        # masking the typo; now it is a loud error.
        monkeypatch.setenv("REPRO_PARALLEL", "8")
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            resolve_jobs(jobs)

    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert resolve_jobs() == 1

    @pytest.mark.parametrize("raw", ["0", "off", "false", ""])
    def test_disabled_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PARALLEL", raw)
        assert resolve_jobs() == 1

    @pytest.mark.parametrize("raw", ["1", "auto", "on"])
    def test_auto_uses_all_cpus(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PARALLEL", raw)
        import os
        assert resolve_jobs() == max(2, os.cpu_count() or 1)

    def test_explicit_count_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "6")
        assert resolve_jobs() == 6

    def test_garbage_env_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "many")
        assert resolve_jobs() == 1


# ----------------------------------------------------------------------
# Feasible vs. infeasible memo hits (bugfix)
# ----------------------------------------------------------------------


class TestInfeasibleHitSplit:
    def test_cached_none_counts_as_infeasible_hit(self, problems):
        bundle, _ = problems["dblp"]
        # No mapping can translate a path that does not exist in the
        # schema, so every evaluation of this workload is infeasible.
        workload = Workload.from_strings("w", ["/dblp/nonexistent/title"])
        evaluator = MappingEvaluator(workload, bundle.stats)
        mapping = hybrid_inlining(bundle.tree)
        assert evaluator.evaluate(mapping) is None
        assert evaluator.evaluate(mapping) is None
        assert evaluator.counters.cache_hits == 0
        assert evaluator.counters.cache_hits_infeasible == 1
        assert evaluator.counters.mappings_evaluated == 1

    def test_feasible_hit_still_counts_as_cache_hit(self, problems):
        bundle, _ = problems["dblp"]
        workload = Workload.from_strings("w", ["/dblp/inproceedings/title"])
        evaluator = MappingEvaluator(workload, bundle.stats)
        mapping = hybrid_inlining(bundle.tree)
        assert evaluator.evaluate(mapping) is not None
        assert evaluator.evaluate(mapping) is not None
        assert evaluator.counters.cache_hits == 1
        assert evaluator.counters.cache_hits_infeasible == 0


# ----------------------------------------------------------------------
# Greedy loop: rejected round winners stay eligible (bugfix)
# ----------------------------------------------------------------------


class _Named:
    """A stand-in transformation: identity plus a printable name."""

    def __init__(self, name):
        self.name = name

    def __str__(self):
        return self.name


class _ScriptedGreedy(GreedySearch):
    """Greedy with fabricated candidate costs.

    Candidate ``X`` derives far below the current cost in round 1 but
    its exact re-check comes back *above* it (stale derivation), so the
    round is lost. ``Y`` wins round 2, which changes the current
    mapping — after which ``X``'s costs are genuinely good and it must
    win round 3. The old loop dropped ``X`` from the pool at the
    round-1 rejection and could never apply it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.x = _Named("X")
        self.y = _Named("Y")
        self._round = 0

    def _select_candidates(self):
        candidates = CandidateSet()
        candidates.merges = [self.x, self.y]
        return candidates

    def _fake(self, base, factor, exact_factor):
        evaluated = dataclasses.replace(
            base, tuning=dataclasses.replace(
                base.tuning, total_cost=base.total_cost * factor))
        evaluated._script_exact = base.total_cost * exact_factor
        return evaluated

    def _cost_candidates(self, candidates, current, evaluator,
                         exact=False):
        if not candidates:
            return []
        self._round += 1
        base = self._base_eval
        costs = {
            # round: {candidate name: (derived factor, exact factor)}
            1: {"X": (0.5, 1.2), "Y": (0.9, 0.9)},
            2: {"Y": (0.8, 0.8)},
            3: {"X": (0.4, 0.4)},
        }.get(self._round, {})
        return [self._fake(base, *costs[str(c)]) if str(c) in costs
                else None for c in candidates]

    def _recheck_winner(self, evaluator, evaluated):
        exact = dataclasses.replace(
            evaluated, tuning=dataclasses.replace(
                evaluated.tuning, total_cost=evaluated._script_exact))
        return exact


class TestRejectedWinnerStaysEligible:
    def test_rejected_candidate_wins_a_later_round(self, small_problem):
        bundle, workload = small_problem
        search = _ScriptedGreedy(bundle.tree, workload, bundle.stats)
        # Capture the base evaluation the script scales its costs from.
        original = _ScriptedGreedy._run_with

        def patched(self, evaluator):
            self._base_eval = evaluator.evaluate(self.base_mapping)
            return original(self, evaluator)

        search._run_with = patched.__get__(search)
        result = search.run()
        assert result.applied == ["Y", "X"]
        assert result.estimated_cost == pytest.approx(
            search._base_eval.total_cost * 0.4)

    def test_rejection_without_state_change_still_terminates(
            self, small_problem):
        bundle, workload = small_problem

        class _AlwaysRejected(_ScriptedGreedy):
            def _cost_candidates(self, candidates, current, evaluator,
                                 exact=False):
                if not candidates:
                    return []
                base = self._base_eval
                return [self._fake(base, 0.5, 1.5) for _ in candidates]

        search = _AlwaysRejected(bundle.tree, workload, bundle.stats)
        original = _AlwaysRejected._run_with

        def patched(self, evaluator):
            self._base_eval = evaluator.evaluate(self.base_mapping)
            return original(self, evaluator)

        search._run_with = patched.__get__(search)
        result = search.run()
        # Every winner is rejected against an unchanged mapping, so the
        # pool drains through the held-back list and the search stops.
        assert result.applied == []
