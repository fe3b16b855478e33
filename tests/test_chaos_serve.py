"""Serve-side resilience: admission control, deadlines, retries, the
circuit breaker, and chaos determinism.

The contracts under test (ISSUE 9 acceptance):

* overload sheds deterministically — whether a request is rejected
  depends only on how many are in flight when it arrives;
* a request over its deadline dies with ``RequestTimeout``, never a
  raw error, and hangs injected at ``serve.request`` are caught;
* transient backend faults are retried invisibly; the breaker trips on
  a sustained error rate and recovers on its seeded probe schedule;
* the same seed + the same fault plan produce identical
  shed/retry/breaker counts and byte-identical successful results at
  ``workers=1`` and ``workers=4``, on both bundled datasets, and every
  request that succeeds under chaos returns exactly what the
  fault-free run returned.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InjectedFault
from repro.experiments import DatasetBundle
from repro.mapping import derive_schema, hybrid_inlining
from repro.resilience import (CLOSED, NULL_PLAN, OPEN, CircuitBreaker,
                              RetryPolicy, install_fault_plan)
from repro.serve import (CircuitOpenError, LoadGenerator, QueryService,
                         RequestTimeout, ServiceError, ServiceOverloaded)
from repro.workload import zipf_mix

SCALE = 60
SEED = 7

#: The chaos plan of the acceptance run: transient execute faults plus
#: occasional hangs long enough to overrun the service deadline below.
#: seed=1 is chosen so the 60-request schedule hits several hangs and
#: the execute-fault sequence never fires more than max_attempts-1
#: times in a row (retries always eventually succeed).
CHAOS_SPEC = ("seed=1;backend.execute:0.1:transient;"
              "serve.request:0.05:hang:0.4")
CHAOS_DEADLINE = 0.2


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    install_fault_plan(NULL_PLAN)
    yield
    install_fault_plan(NULL_PLAN)


@pytest.fixture(scope="module", params=["dblp", "movie"])
def serving_bundle(request):
    make = (DatasetBundle.dblp if request.param == "dblp"
            else DatasetBundle.movie)
    bundle = make(scale=SCALE, seed=SEED)
    schema = derive_schema(hybrid_inlining(bundle.tree))
    workload = bundle.workload_generator(seed=SEED).generate(6)
    return bundle, schema, workload


@pytest.fixture(scope="module")
def dblp_serving():
    bundle = DatasetBundle.dblp(scale=SCALE, seed=SEED)
    schema = derive_schema(hybrid_inlining(bundle.tree))
    workload = bundle.workload_generator(seed=SEED).generate(6)
    return bundle, schema, workload


QUERY = "//inproceedings/title"


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def test_shed_past_queue_limit_is_deterministic(self, dblp_serving):
        """With the single worker blocked, exactly ``workers +
        max_queue`` submissions are admitted and the rest shed —
        independent of thread timing, because admitted requests cannot
        finish while the gate is closed."""
        bundle, schema, _ = dblp_serving
        service = QueryService(schema, bundle.docs, workers=1, max_queue=2)
        try:
            gate = threading.Event()
            original = service.backend.execute

            def gated(sql):
                assert gate.wait(timeout=30)
                return original(sql)

            service.backend.execute = gated
            futures, shed = [], 0
            for _ in range(8):
                try:
                    futures.append(service.submit(QUERY))
                except ServiceOverloaded:
                    shed += 1
            assert len(futures) == 3  # 1 executing + 2 queued
            assert shed == 5
            assert service.stats().shed == 5
            gate.set()
            for future in futures:
                assert future.result(timeout=30).rows
        finally:
            service.close()

    def test_unbounded_queue_never_sheds(self, dblp_serving):
        bundle, schema, _ = dblp_serving
        service = QueryService(schema, bundle.docs, workers=2,
                               max_queue=None)
        try:
            futures = [service.submit(QUERY) for _ in range(32)]
            for future in futures:
                future.result(timeout=30)
            assert service.stats().shed == 0
        finally:
            service.close()

    def test_submit_after_close_raises_service_error(self, dblp_serving):
        bundle, schema, _ = dblp_serving
        service = QueryService(schema, bundle.docs, workers=1)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(QUERY)

    def test_pool_shutdown_race_surfaces_service_error(self, dblp_serving):
        """Regression: a close() racing submit() past the _closed check
        used to leak the executor's raw RuntimeError. Forcing the pool
        down without the flag reproduces exactly that interleaving."""
        bundle, schema, _ = dblp_serving
        service = QueryService(schema, bundle.docs, workers=1)
        try:
            service._pool.shutdown(wait=True)
            with pytest.raises(ServiceError, match="closed"):
                service.submit(QUERY)
            assert service.stats().errors == 0
        finally:
            service.close()

    def test_close_drains_in_flight_requests_by_default(self, dblp_serving):
        bundle, schema, _ = dblp_serving
        service = QueryService(schema, bundle.docs, workers=2)
        futures = [service.submit(QUERY) for _ in range(8)]
        service.close()  # drain=True: every admitted request finishes
        assert all(future.result(timeout=1).rows for future in futures)


# ----------------------------------------------------------------------
# Deadlines and retries
# ----------------------------------------------------------------------


class TestDeadlinesAndRetries:
    def test_hang_past_deadline_times_out(self, dblp_serving):
        bundle, schema, _ = dblp_serving
        install_fault_plan("serve.request:1:hang:0.3")
        service = QueryService(schema, bundle.docs, workers=1,
                               deadline=0.05)
        try:
            with pytest.raises(RequestTimeout):
                service.serve(QUERY)
            stats = service.stats()
            assert stats.timeouts == 1 and stats.errors == 1
        finally:
            service.close()

    def test_no_deadline_tolerates_the_hang(self, dblp_serving):
        bundle, schema, _ = dblp_serving
        install_fault_plan("serve.request:1:hang:0.05")
        service = QueryService(schema, bundle.docs, workers=1)
        try:
            assert service.serve(QUERY).rows
            assert service.stats().timeouts == 0
        finally:
            service.close()

    def test_transient_faults_are_retried_invisibly(self, dblp_serving):
        bundle, schema, _ = dblp_serving
        service = QueryService(schema, bundle.docs, workers=1,
                               retry_policy=RetryPolicy(max_attempts=4,
                                                        backoff=0.0))
        try:
            baseline = service.serve(QUERY)
            # seed=8 never fires more than 3 times in a row at this
            # rate, so max_attempts=4 always recovers.
            install_fault_plan("seed=8;backend.execute:0.3:transient")
            results = [service.serve(QUERY) for _ in range(20)]
            assert all(r.rows == baseline.rows for r in results)
            assert sum(r.retries for r in results) > 0
            stats = service.stats()
            assert stats.retries == sum(r.retries for r in results)
            assert stats.errors == 0
        finally:
            service.close()

    def test_exhausted_retries_propagate_the_fault(self, dblp_serving):
        bundle, schema, _ = dblp_serving
        install_fault_plan("backend.execute:1:transient")
        service = QueryService(schema, bundle.docs, workers=1,
                               retry_policy=RetryPolicy(max_attempts=2,
                                                        backoff=0.0))
        try:
            with pytest.raises(InjectedFault):
                service.serve(QUERY)
            stats = service.stats()
            assert stats.retries == 1 and stats.errors == 1
        finally:
            service.close()

    def test_timeouts_are_never_retried(self, dblp_serving):
        """A hang that overruns the deadline must fail immediately with
        RequestTimeout — not burn max_attempts x duration."""
        bundle, schema, _ = dblp_serving
        install_fault_plan("serve.request:1:hang:0.3")
        service = QueryService(schema, bundle.docs, workers=1,
                               deadline=0.05,
                               retry_policy=RetryPolicy(max_attempts=3,
                                                        backoff=0.0))
        try:
            with pytest.raises(RequestTimeout):
                service.serve(QUERY)
            assert service.stats().retries == 0
        finally:
            service.close()


    def test_traced_registry_and_stats_are_one_store(self, dblp_serving):
        """Under a real tracer every count lives in the tracer's
        ``serve.service`` registry and ``stats()`` reads it: after a
        success, an error, a shed, retries and a deadline timeout the
        two agree, and ``requests`` is the latency histogram's count."""
        from repro.obs import Tracer
        bundle, schema, _ = dblp_serving
        tracer = Tracer()
        service = QueryService(schema, bundle.docs, workers=1, max_queue=0,
                               deadline=0.2, tracer=tracer,
                               retry_policy=RetryPolicy(max_attempts=4,
                                                        backoff=0.0))
        try:
            assert service.serve(QUERY).rows
            with pytest.raises(Exception):
                service.serve("//no_such_element/anywhere")
            install_fault_plan("seed=8;backend.execute:0.3:transient")
            retried = [service.serve(QUERY) for _ in range(20)]
            install_fault_plan("serve.request:1:hang:0.5")
            with pytest.raises(RequestTimeout):
                service.serve(QUERY)
            install_fault_plan(NULL_PLAN)
            gate = threading.Event()
            original = service.backend.execute

            def gated(sql):
                assert gate.wait(timeout=30)
                return original(sql)

            service.backend.execute = gated
            admitted = service.submit(QUERY)
            with pytest.raises(ServiceOverloaded):
                service.submit(QUERY)
            gate.set()
            assert admitted.result(timeout=30).rows
            stats = service.stats()
            counters = tracer.metric_snapshot()["serve.service"]
        finally:
            service.close()
        assert stats.errors == counters["errors"] == 2
        assert stats.shed == counters["requests_shed"] == 1
        assert stats.retries == counters["request_retries"] \
            == sum(r.retries for r in retried) > 0
        assert stats.timeouts == counters["request_timeouts"] == 1
        assert stats.requests == counters["request_seconds.count"] == 22
        assert "requests" not in counters  # derived, not kept twice
        assert "serve.plan_cache" not in tracer.metric_snapshot()

    def test_services_on_one_tracer_keep_their_own_counts(
            self, dblp_serving):
        """Two services on one tracer — passed in, or the ambient one —
        each count their own requests and errors: the first keeps the
        ``serve.service`` registry, the second gets one of its own."""
        from repro.obs import Tracer, get_tracer, set_tracer
        bundle, schema, _ = dblp_serving
        tracer = Tracer()
        for ambient in (False, True):
            previous = get_tracer()
            set_tracer(tracer if ambient else None)
            try:
                first, second = (
                    QueryService(schema, bundle.docs, workers=1,
                                 tracer=None if ambient else tracer)
                    for _ in range(2))
            finally:
                set_tracer(previous)
            try:
                for _ in range(5):
                    first.serve(QUERY)
                with pytest.raises(Exception):
                    second.serve("//no_such_element/anywhere")
                assert (first.stats().requests, first.stats().errors) \
                    == (5, 0)
                assert (second.stats().requests, second.stats().errors) \
                    == (0, 1)
            finally:
                first.close()
                second.close()
        registries = tracer.metric_snapshot()
        assert registries["serve.service"]["request_seconds.count"] == 5
        assert registries["serve.service#2"]["errors"] == 1
        assert registries["serve.service#4"]["errors"] == 1


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_at_threshold_and_probe_recovers(self):
        breaker = CircuitBreaker(window=8, min_requests=4,
                                 failure_threshold=0.5, probe_rate=1.0,
                                 seed=1)
        for _ in range(3):
            breaker.record(False)
        assert breaker.state == CLOSED
        breaker.record(False)
        assert breaker.state == OPEN and breaker.trips == 1
        assert breaker.admit() == "probe"  # probe_rate=1: always probes
        breaker.record(False, probe=True)
        assert breaker.state == OPEN and breaker.probe_failures == 1
        assert breaker.admit() == "probe"
        breaker.record(True, probe=True)
        assert breaker.state == CLOSED

    def test_open_breaker_fast_fails_between_probes(self):
        breaker = CircuitBreaker(window=8, min_requests=4,
                                 failure_threshold=0.5, probe_rate=1e-9,
                                 seed=1)
        for _ in range(4):
            breaker.record(False)
        decisions = [breaker.admit() for _ in range(10)]
        assert decisions == ["shed"] * 10
        assert breaker.snapshot()["fast_fails"] == 10

    def test_probe_schedule_is_seed_deterministic(self):
        def run(seed):
            breaker = CircuitBreaker(window=8, min_requests=4,
                                     failure_threshold=0.5,
                                     probe_rate=0.25, seed=seed)
            for _ in range(4):
                breaker.record(False)
            return [breaker.admit() for _ in range(40)]

        assert run(5) == run(5)
        assert run(5) != run(6)
        assert "probe" in run(5) and "shed" in run(5)

    def test_late_results_from_before_the_trip_are_ignored(self):
        breaker = CircuitBreaker(window=8, min_requests=4,
                                 failure_threshold=0.5, probe_rate=0.25,
                                 seed=1)
        for _ in range(4):
            breaker.record(False)
        assert breaker.state == OPEN
        breaker.record(True)  # a straggler admitted before the trip
        assert breaker.state == OPEN and breaker.trips == 1

    @settings(deadline=None)
    @given(window=st.integers(1, 12), min_requests=st.integers(1, 12),
           threshold=st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]),
           seed=st.integers(0, 3),
           steps=st.lists(st.tuples(st.booleans(), st.booleans()),
                          max_size=200))
    def test_decisions_equal_the_windowed_sum_rule(self, window,
                                                   min_requests, threshold,
                                                   seed, steps):
        """The running failure count decides exactly as re-counting the
        last ``window`` outcomes on every record would: the same trips,
        probes and closes, step for step. A step is one arrival (its
        outcome recorded if admitted) or, with ``straggler``, one
        outcome of a request admitted earlier."""
        breaker = CircuitBreaker(window=window, min_requests=min_requests,
                                 failure_threshold=threshold,
                                 probe_rate=0.5, seed=seed)
        state, outcomes = CLOSED, []

        def sum_rule(success: bool, probe: bool) -> str:
            if probe:
                if success:
                    outcomes.clear()
                    return CLOSED
                return state
            if state == OPEN:
                return OPEN
            outcomes.append(success)
            del outcomes[:-window]
            if len(outcomes) >= min_requests and \
                    outcomes.count(False) / len(outcomes) >= threshold:
                outcomes.clear()
                return OPEN
            return CLOSED

        trips = 0
        for straggler, success in steps:
            before = state
            if straggler:
                breaker.record(success)
                state = sum_rule(success, False)
            else:
                decision = breaker.admit()
                assert (decision == "allow") == (state == CLOSED)
                if decision != "shed":
                    breaker.record(success, probe=decision == "probe")
                    state = sum_rule(success, decision == "probe")
            trips += before == CLOSED and state == OPEN
            assert (breaker.state, breaker.trips) == (state, trips)
        assert breaker._failures == outcomes.count(False)

    def test_service_trips_and_recovers_deterministically(self,
                                                          dblp_serving):
        """A dead backend trips the breaker; once the faults stop, the
        seeded probe schedule closes it again — same request index on
        every run because arrivals are sequential."""
        bundle, schema, _ = dblp_serving
        breaker = CircuitBreaker(window=8, min_requests=4,
                                 failure_threshold=0.5, probe_rate=0.25,
                                 seed=3)
        install_fault_plan("backend.execute:1:fatal")
        service = QueryService(schema, bundle.docs, workers=1,
                               breaker=breaker)
        try:
            outcomes = []
            for _ in range(6):
                try:
                    service.serve(QUERY)
                    outcomes.append("ok")
                except InjectedFault:
                    outcomes.append("fault")
                except CircuitOpenError:
                    outcomes.append("open")
            assert outcomes[:4] == ["fault"] * 4  # window fills, trips
            assert "open" in outcomes or breaker.state == OPEN
            # The backend recovers; probes close the breaker.
            install_fault_plan(NULL_PLAN)
            recovered_at = None
            for i in range(64):
                try:
                    result = service.serve(QUERY)
                    assert result.rows
                    recovered_at = i
                    break
                except CircuitOpenError:
                    continue
            assert recovered_at is not None
            assert breaker.state == CLOSED
            assert breaker.snapshot()["fast_fails"] > 0
        finally:
            service.close()


# ----------------------------------------------------------------------
# Startup cleanup
# ----------------------------------------------------------------------


class TestStartupCleanup:
    def test_failed_startup_removes_the_partial_file(self, dblp_serving,
                                                     tmp_path):
        """Regression: a service dying mid-load used to leave the
        partial database behind, so the retry hit 'table already
        exists'."""
        bundle, schema, _ = dblp_serving
        db = tmp_path / "serve.db"
        install_fault_plan("backend.load.batch:1:fatal:0:2")
        with pytest.raises(InjectedFault):
            QueryService(schema, bundle.docs, workers=1, db_path=str(db),
                         load_batch_size=40)
        assert not db.exists()
        install_fault_plan(NULL_PLAN)
        service = QueryService(schema, bundle.docs, workers=1,
                               db_path=str(db))
        try:
            assert service.serve(QUERY).rows
        finally:
            service.close()

    def test_preexisting_file_survives_a_failed_startup(self, dblp_serving,
                                                        tmp_path):
        """A file the user brought is never deleted, even when startup
        fails against it."""
        bundle, schema, _ = dblp_serving
        db = tmp_path / "prior.db"
        service = QueryService(schema, bundle.docs, workers=1,
                               db_path=str(db))
        service.close()
        assert db.exists()
        before = db.stat().st_size
        with pytest.raises(Exception):
            # The second load hits "table already exists".
            QueryService(schema, bundle.docs, workers=1, db_path=str(db))
        assert db.exists() and db.stat().st_size == before


# ----------------------------------------------------------------------
# Chaos determinism (the acceptance run)
# ----------------------------------------------------------------------


def _chaos_run(schema, docs, workload, workers: int, spec: str | None):
    """One sequential (clients=1) loadgen run; returns (records,
    service stats). Sequential submission makes every fault-site
    counter a pure function of the schedule."""
    if spec is not None:
        install_fault_plan(spec)
    else:
        install_fault_plan(NULL_PLAN)
    service = QueryService(schema, docs, workers=workers,
                           deadline=CHAOS_DEADLINE,
                           retry_policy=RetryPolicy(max_attempts=3,
                                                    backoff=0.0))
    try:
        mix = zipf_mix(workload, skew=1.0)
        generator = LoadGenerator(service, mix, seed=SEED, mode="closed",
                                  clients=1)
        report = generator.run(requests=60)
        return report, service.stats()
    finally:
        service.close()
        install_fault_plan(NULL_PLAN)


def _outcomes(report):
    return [(r.index, r.query_index, r.digest,
             None if r.error is None else r.error.split(":", 1)[0])
            for r in report.records]


class TestChaosDeterminism:
    def test_same_plan_same_counts_across_worker_counts(self,
                                                        serving_bundle):
        bundle, schema, workload = serving_bundle
        first, first_stats = _chaos_run(schema, bundle.docs, workload,
                                        workers=1, spec=CHAOS_SPEC)
        second, second_stats = _chaos_run(schema, bundle.docs, workload,
                                          workers=4, spec=CHAOS_SPEC)
        assert _outcomes(first) == _outcomes(second)
        assert first.results_digest == second.results_digest
        assert first.errors_by_type == second.errors_by_type
        for stats in (first_stats, second_stats):
            assert stats.retries == first_stats.retries
            assert stats.shed == first_stats.shed
            assert stats.timeouts == first_stats.timeouts
            assert stats.breaker == first_stats.breaker
        # The chaos plan actually did something.
        assert first_stats.retries > 0
        assert first.errors > 0

    def test_successful_requests_match_the_fault_free_run(self,
                                                          serving_bundle):
        bundle, schema, workload = serving_bundle
        chaos, _ = _chaos_run(schema, bundle.docs, workload,
                              workers=4, spec=CHAOS_SPEC)
        clean, _ = _chaos_run(schema, bundle.docs, workload,
                              workers=4, spec=None)
        assert clean.errors == 0
        assert chaos.sequence_digest == clean.sequence_digest
        by_index = {r.index: r for r in clean.records}
        checked = 0
        for record in chaos.records:
            if record.error is not None:
                continue
            assert record.digest == by_index[record.index].digest
            assert record.rows == by_index[record.index].rows
            checked += 1
        assert checked > 0


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------


class TestChaosCli:
    def test_loadgen_chaos_flags_and_json(self, tmp_path):
        import json

        from tests.test_serve import run_cli

        json_path = tmp_path / "chaos.json"
        args = ["loadgen", "--dataset", "dblp", "--scale", "60",
                "--queries", "6", "--seed", "7", "--clients", "1",
                "--requests", "40", "--deadline", "1.0",
                "--max-queue", "64",
                "--faults", "seed=7;backend.execute:0.2:transient",
                "--json", str(json_path),
                "--verify", "--max-shed-rate", "0.1",
                "--max-error-rate", "0.1"]
        code, out = run_cli(args)
        assert code == 0, out
        assert "verify OK" in out
        payload = json.loads(json_path.read_text())
        assert payload["resilience"]["retries"] > 0
        assert payload["errors"] == 0
        assert "results_digest" in payload
        assert payload["resilience"]["breaker"]["state"] == "closed"
        assert sum(q["requests"]
                   for q in payload["by_query"].values()) == 40

    def test_by_query_adds_up_when_requests_fail(self, tmp_path):
        """The per-query traffic in the JSON summary accounts for every
        request and every error of a seeded run that loses some."""
        import json

        from tests.test_serve import run_cli

        json_path = tmp_path / "lossy.json"
        code, out = run_cli([
            "loadgen", "--dataset", "dblp", "--scale", "60",
            "--queries", "6", "--seed", "7", "--clients", "1",
            "--requests", "40",
            "--faults", "seed=3;backend.execute:0.3:fatal",
            "--json", str(json_path)])
        assert code == 0, out
        payload = json.loads(json_path.read_text())
        traffic = payload["by_query"].values()
        assert 0 < payload["errors"] < payload["requests"] == 40
        assert sum(q["requests"] for q in traffic) == payload["requests"]
        assert sum(q["errors"] for q in traffic) == payload["errors"]

    def test_loadgen_gate_failure_exits_nonzero(self, tmp_path):
        from tests.test_serve import run_cli

        args = ["loadgen", "--dataset", "dblp", "--scale", "60",
                "--queries", "6", "--seed", "7", "--clients", "1",
                "--requests", "30",
                "--faults", "backend.execute:1:fatal",
                "--max-error-rate", "0.05"]
        code, out = run_cli(args)
        assert code == 1
        assert "SMOKE FAIL" in out and "error rate" in out

    def test_serve_accepts_faults_flag(self):
        from tests.test_serve import run_cli

        code, out = run_cli(
            ["serve", "--dataset", "dblp", "--scale", "60",
             "--queries", "4", "--seed", "7",
             "--faults", "seed=1;backend.execute:0.2:transient",
             "--deadline", "2.0", "--xpath", QUERY])
        assert code == 0
        assert "rows in" in out
