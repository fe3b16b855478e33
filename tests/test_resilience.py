"""Fault injection, retry/degradation policy, and chaos determinism.

The contract under test: a seeded fault plan whose faults are all
*retryable* must leave a search's :class:`DesignResult` — and its
evaluation counters — identical to a fault-free run, at ``jobs=1`` and
``jobs=4``; non-retryable paths must degrade loudly (counters, metrics)
but never crash the search or poison a cache.
"""

import dataclasses
import re
import threading

import pytest

from repro.errors import InjectedFault
from repro.experiments import DatasetBundle
from repro.mapping import hybrid_inlining
from repro.obs import Tracer
from repro.resilience import (NULL_PLAN, FaultPlan, FaultRule, RetryPolicy,
                              classify, install_fault_plan)
from repro.search import GreedySearch, MappingEvaluator, mapping_digest


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    """Every test starts and ends with fault injection disabled."""
    install_fault_plan(NULL_PLAN)
    yield
    install_fault_plan(NULL_PLAN)


@pytest.fixture(scope="module")
def problem():
    bundle = DatasetBundle.dblp(scale=150, seed=11)
    workload = bundle.workload_generator(seed=5).generate(4)
    return bundle, workload


def _fingerprint(result):
    return (mapping_digest(result.mapping), tuple(result.applied),
            result.estimated_cost, result.configuration.describe())


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "seed=42;evaluate:0.2:transient;checkpoint.write:1:torn;"
            "whatif:0.1:hang:0.5;advisor:1:fatal:0:7")
        assert plan.seed == 42
        assert plan.rules["evaluate"].rate == 0.2
        assert plan.rules["checkpoint.write"].kind == "torn"
        assert plan.rules["whatif"].duration == 0.5
        assert plan.rules["advisor"].after == 7
        rebuilt = FaultPlan.from_spec(plan.to_spec())
        assert rebuilt.seed == plan.seed
        assert rebuilt.rules == plan.rules

    def test_same_seed_same_sequence(self):
        plan = FaultPlan([FaultRule("evaluate", 0.3)], seed=9)
        first = [plan.fire("evaluate") is not None for _ in range(200)]
        plan.reset()
        second = [plan.fire("evaluate") is not None for _ in range(200)]
        assert first == second
        assert any(first) and not all(first)

    def test_sites_do_not_perturb_each_other(self):
        solo = FaultPlan([FaultRule("evaluate", 0.3)], seed=9)
        both = FaultPlan([FaultRule("evaluate", 0.3),
                          FaultRule("whatif", 0.5)], seed=9)
        solo_fires = [solo.fire("evaluate") is not None for _ in range(100)]
        both_fires = []
        for _ in range(100):
            both.fire("whatif")
            both_fires.append(both.fire("evaluate") is not None)
        assert solo_fires == both_fires

    def test_after_threshold_is_exact(self):
        plan = FaultPlan([FaultRule("evaluate", 1.0, "fatal", after=3)])
        fires = [plan.fire("evaluate") is not None for _ in range(5)]
        assert fires == [False, False, False, True, True]

    def test_counts_survive_eight_thread_hammer(self):
        """Regression: the per-site invocation counter was a bare
        read-modify-write, so concurrent ``fire`` calls could claim the
        same invocation number — double-firing one scheduled fault and
        skipping another. Under the lock, 8 threads hammering one site
        must fire exactly as often as a serial replay of the plan."""
        threads_n, per_thread = 8, 500
        plan = FaultPlan([FaultRule("evaluate", 0.3)], seed=13)
        fired = [0] * threads_n
        barrier = threading.Barrier(threads_n)

        def worker(slot: int) -> None:
            barrier.wait()
            count = 0
            for _ in range(per_thread):
                if plan.fire("evaluate") is not None:
                    count += 1
            fired[slot] = count

        workers = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads_n)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        serial = FaultPlan([FaultRule("evaluate", 0.3)], seed=13)
        expected = sum(1 for _ in range(threads_n * per_thread)
                       if serial.fire("evaluate") is not None)
        assert sum(fired) == expected
        assert plan._counts["evaluate"] == threads_n * per_thread

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("evaluate:2.0")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("evaluate:0.5:explode")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("evaluate")

    @pytest.mark.parametrize("spec", ["checkpoint.read:0.1", "evalute:1"])
    def test_unknown_site_rejected_with_the_known_ones(self, spec):
        """A rule for a site nothing consults would never fire; the
        error names every site that does."""
        with pytest.raises(ValueError, match="unknown fault site") as info:
            FaultPlan.from_spec(spec)
        for site in ("evaluate", "checkpoint.write", "backend.load.batch"):
            assert site in str(info.value)

    def test_known_sites_are_the_documented_table(self):
        import re

        from repro.resilience import faults
        table = re.findall(r"^``([a-z.]+)``", faults.__doc__, re.M)
        assert tuple(table) == faults._SITES

    def test_null_plan_never_fires(self):
        assert not NULL_PLAN.enabled
        assert NULL_PLAN.fire("evaluate") is None
        NULL_PLAN.maybe_raise("evaluate")  # no-op


class TestClassify:
    def test_buckets(self):
        import pickle
        from concurrent.futures.process import BrokenProcessPool

        from repro.errors import (CheckError, EvaluationTimeout,
                                  MappingError, TranslationError)

        assert classify(InjectedFault("s", retryable=True)) == "transient"
        assert classify(InjectedFault("s", retryable=False)) == "fatal"
        assert classify(EvaluationTimeout("late")) == "timeout"
        assert classify(TimeoutError()) == "timeout"  # 3.12: is an OSError
        assert classify(TranslationError("no")) == "infeasible"
        assert classify(MappingError("no")) == "inapplicable"
        assert classify(CheckError("bug")) == "fatal"
        assert classify(BrokenProcessPool()) == "infrastructure"
        assert classify(OSError()) == "infrastructure"
        assert classify(pickle.PicklingError()) == "infrastructure"
        assert classify(ValueError()) == "fatal"

    def test_self_declared_retryable_repro_errors_are_transient(self):
        """A ReproError carrying ``retryable = True`` (the SQLite
        backend's SQLITE_BUSY wrapper) is transient without this module
        importing backend exception types."""
        from repro.backends import BackendBusyError, BackendError

        assert classify(BackendBusyError("database busy")) == "transient"
        assert classify(BackendError("query failed")) == "fatal"


# ----------------------------------------------------------------------
# Retry policy at the evaluator
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_exhausted_retries_become_infeasible_by_fault(self, problem):
        bundle, workload = problem
        install_fault_plan(FaultPlan([FaultRule("evaluate", 1.0)]))
        evaluator = MappingEvaluator(
            workload, bundle.stats, bundle.storage_bound,
            policy=RetryPolicy(max_attempts=3, backoff=0.0))
        mapping = hybrid_inlining(bundle.tree)
        assert evaluator.evaluate(mapping) is None
        counters = evaluator.counters
        assert counters.mappings_evaluated == 1
        assert counters.fault_retries == 2
        assert counters.faulted_evaluations == 1
        # A fault-caused None is never cached: the candidate stays
        # evaluable once the faults stop.
        install_fault_plan(NULL_PLAN)
        assert evaluator.cached(mapping) is None
        assert evaluator.evaluate(mapping) is not None

    def test_recovered_retry_is_counter_invisible(self, problem):
        bundle, workload = problem
        mapping = hybrid_inlining(bundle.tree)
        clean = MappingEvaluator(workload, bundle.stats,
                                 bundle.storage_bound)
        clean_result = clean.evaluate(mapping)
        # Half the attempts fail (seeded, deterministic); with 4
        # attempts per logical evaluation, recovery is the common case.
        install_fault_plan(FaultPlan([FaultRule("evaluate", 0.5)], seed=1))
        chaotic = MappingEvaluator(
            workload, bundle.stats, bundle.storage_bound, use_cache=False,
            policy=RetryPolicy(max_attempts=4, backoff=0.0))
        result = None
        attempts = 0
        while result is None and attempts < 20:
            attempts += 1
            result, _ = chaotic.evaluate_uncached(mapping)
        assert result is not None
        assert result.total_cost == clean_result.total_cost
        # Evaluations are counted once per logical evaluation, not per
        # attempt: retries only ever show up under fault_retries.
        assert chaotic.counters.mappings_evaluated == attempts
        assert chaotic.counters.fault_retries >= 1

    @pytest.mark.parametrize("settings, field", [
        ({"max_attempts": 0}, "max_attempts"), ({"backoff": -1.0}, "backoff"),
        ({"timeout": 0.0}, "timeout"), ({"timeout": -5.0}, "timeout")])
    def test_refuses_values_it_cannot_use(self, settings, field):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**settings)

    @pytest.mark.parametrize("name, raw, message", [
        ("REPRO_RETRY_BACKOFF", "-1", "backoff must be >= 0"),
        ("REPRO_EVAL_TIMEOUT", "-5", "timeout must be > 0"),
        ("REPRO_RETRY_ATTEMPTS", "abc", "REPRO_RETRY_ATTEMPTS='abc'"),
        ("REPRO_RETRY_ATTEMPTS", "2.5", "REPRO_RETRY_ATTEMPTS='2.5'"),
        ("REPRO_RETRY_BACKOFF", "soon", "REPRO_RETRY_BACKOFF='soon'"),
        ("REPRO_EVAL_TIMEOUT", "1s", "REPRO_EVAL_TIMEOUT='1s'")])
    def test_from_env_refuses_what_it_cannot_use(self, monkeypatch, name,
                                                 raw, message):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=re.escape(message)):
            RetryPolicy.from_env()

    def test_from_env_reads_what_the_chaos_job_sets(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "8")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "")
        assert RetryPolicy.from_env() == RetryPolicy(max_attempts=8,
                                                     backoff=0.0)

    def test_fatal_faults_propagate(self, problem):
        bundle, workload = problem
        install_fault_plan(FaultPlan(
            [FaultRule("evaluate", 1.0, "fatal")]))
        evaluator = MappingEvaluator(workload, bundle.stats,
                                     bundle.storage_bound)
        with pytest.raises(InjectedFault):
            evaluator.evaluate(hybrid_inlining(bundle.tree))


# ----------------------------------------------------------------------
# Chaos determinism: retryable faults leave the result unchanged
# ----------------------------------------------------------------------


class TestChaosDeterminism:
    @pytest.fixture(scope="class")
    def baseline(self, problem):
        bundle, workload = problem
        return _fingerprint(GreedySearch(
            bundle.tree, workload, bundle.stats,
            bundle.storage_bound).run())

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_greedy_under_transient_faults(self, problem, baseline, jobs,
                                           monkeypatch):
        bundle, workload = problem
        monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "6")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        install_fault_plan("seed=13;evaluate:0.1:transient")
        chaotic = GreedySearch(bundle.tree, workload, bundle.stats,
                               bundle.storage_bound, jobs=jobs).run()
        assert _fingerprint(chaotic) == baseline
        if jobs == 1:
            # Deterministic at jobs=1: the seeded plan must actually
            # have fired (otherwise this test proves nothing).
            assert chaotic.counters.fault_retries > 0
        assert chaotic.counters.faulted_evaluations == 0


# ----------------------------------------------------------------------
# Deadline + pool degradation
# ----------------------------------------------------------------------


def _distinct_variants(base, count):
    """``count`` mappings with pairwise-distinct signatures, base first."""
    from repro.mapping import enumerate_transformations

    variants = [base]
    signatures = {base.signature()}
    for transformation in enumerate_transformations(base):
        try:
            mapping = transformation.apply(base)
        except Exception:
            continue
        if mapping.signature() in signatures:
            continue
        signatures.add(mapping.signature())
        variants.append(mapping)
        if len(variants) == count:
            break
    assert len(variants) == count
    return variants


def _pool_fallbacks(tracer):
    """The ``fallback`` tier of every ``pool_degraded`` event, in order."""
    return [event.attributes["fallback"] for event in tracer.events
            if event.name == "pool_degraded"]


class TestTimeoutDegradation:
    def test_hung_worker_times_out_and_pool_degrades(self, problem):
        bundle, workload = problem
        # Every worker's second-and-later evaluation hangs well past the
        # deadline; the first per worker stays fast. With 3 tasks on 2
        # workers, some worker must draw a second task.
        install_fault_plan(FaultPlan(
            [FaultRule("evaluate", 1.0, "hang", duration=3.0, after=1)]))
        tracer = Tracer()
        evaluator = MappingEvaluator(
            workload, bundle.stats, bundle.storage_bound, jobs=2,
            tracer=tracer,
            policy=RetryPolicy(max_attempts=1, backoff=0.0, timeout=0.75))
        try:
            variants = _distinct_variants(hybrid_inlining(bundle.tree), 3)
            results = evaluator.evaluate_many(variants)
        finally:
            evaluator.close()
        counters = evaluator.counters
        # At least one task hit the deadline, the pool stepped down a
        # tier, and the batch still completed with aligned results.
        assert len(results) == len(variants)
        assert counters.timeouts >= 1
        assert counters.pool_degradations >= 1
        assert counters.faulted_evaluations >= 1
        # The ladder has one step: the first deadline lands the pool on
        # the inline tier, which has no deadline — so exactly one
        # candidate was abandoned and the rest finished in-process.
        assert _pool_fallbacks(tracer) == ["inline"]
        assert counters.timeouts == 1
        assert counters.pool_degradations == 1
        assert counters.faulted_evaluations == 1
        # The abandoned candidate comes back ``None`` and is not cached
        # (nor re-run in the main process); the others are.
        assert results.count(None) == 1
        install_fault_plan(NULL_PLAN)
        for variant, result in zip(variants, results):
            assert evaluator.cached(variant) is result

    def test_timed_out_candidate_is_not_cached(self, problem):
        bundle, workload = problem
        install_fault_plan(FaultPlan(
            [FaultRule("evaluate", 1.0, "hang", duration=2.0)]))
        evaluator = MappingEvaluator(
            workload, bundle.stats, bundle.storage_bound, jobs=2,
            policy=RetryPolicy(max_attempts=1, backoff=0.0, timeout=0.5))
        try:
            base, other = _distinct_variants(hybrid_inlining(bundle.tree), 2)
            results = evaluator.evaluate_many([base, other])
            assert None in results
            install_fault_plan(NULL_PLAN)
            assert evaluator.cached(base) is None or \
                evaluator.cached(other) is None
        finally:
            evaluator.close()


class TestBrokenPool:
    def test_submit_fault_finishes_the_batch_inline(self, problem):
        """docs/resilience.md, "broken process pool": an injected
        ``pool.submit`` fault degrades the pool once and the batch is
        costed in-process, with the serial run's results and counters."""
        bundle, workload = problem
        variants = _distinct_variants(hybrid_inlining(bundle.tree), 3)
        serial = MappingEvaluator(workload, bundle.stats,
                                  bundle.storage_bound, jobs=1)
        expected = serial.evaluate_many(variants)

        install_fault_plan(FaultPlan([FaultRule("pool.submit", 1.0)]))
        tracer = Tracer()
        evaluator = MappingEvaluator(workload, bundle.stats,
                                     bundle.storage_bound, jobs=2,
                                     tracer=tracer)
        try:
            results = evaluator.evaluate_many(variants)
            assert [r.total_cost for r in results] == \
                [r.total_cost for r in expected]
            assert [r.tuning.configuration.describe() for r in results] == \
                [r.tuning.configuration.describe() for r in expected]
            assert evaluator.counters == dataclasses.replace(
                serial.counters, pool_degradations=1)
            # The pool stays on the inline tier: a later batch neither
            # consults ``pool.submit`` nor degrades again.
            later = _distinct_variants(hybrid_inlining(bundle.tree), 5)[3:]
            assert None not in evaluator.evaluate_many(later)
        finally:
            evaluator.close()
        assert _pool_fallbacks(tracer) == ["inline"]
        assert evaluator.counters.pool_degradations == 1


# ----------------------------------------------------------------------
# Suppressed-failure accounting (the narrowed except blocks)
# ----------------------------------------------------------------------


class TestSuppressedFailures:
    def test_note_suppressed_counts_and_classifies(self):
        from repro.errors import MappingError
        from repro.resilience import note_suppressed

        tracer = Tracer()
        category = note_suppressed(MappingError("nope"), "greedy.x", tracer)
        assert category == "inapplicable"
        metrics = tracer.metric_snapshot()["resilience"]
        assert metrics["suppressed.inapplicable.greedy.x"] == 1
