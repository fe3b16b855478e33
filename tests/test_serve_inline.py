"""``serve()`` runs on the caller, ``submit()`` on the pool (ISSUE 20).

The two client APIs share one admission and one request path, so every
safety property is asserted here through *both* and must read the same:
what is raised, what is counted, and that nothing stays in flight. The
jobs the pool used to do as a side effect — capping the number of open
connections, being the thing ``close()`` waits for — are pinned as
behaviour of their own.
"""

import contextlib
import sys
import threading
import time

import pytest

from repro.errors import InjectedFault, XPathError
from repro.experiments import DatasetBundle
from repro.mapping import derive_schema, hybrid_inlining
from repro.resilience import (NULL_PLAN, OPEN, CircuitBreaker, RetryPolicy,
                              install_fault_plan)
from repro.serve import (CircuitOpenError, LoadGenerator, QueryService,
                         RequestTimeout, ServiceError, ServiceOverloaded)
from repro.workload import zipf_mix

QUERY = "//inproceedings/title"
POOL_PREFIX = "repro-serve"


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    install_fault_plan(NULL_PLAN)
    yield
    install_fault_plan(NULL_PLAN)


@pytest.fixture(scope="module")
def dblp():
    bundle = DatasetBundle.dblp(scale=60, seed=7)
    return bundle, derive_schema(hybrid_inlining(bundle.tree))


def make_service(dblp, **kwargs) -> QueryService:
    bundle, schema = dblp
    kwargs.setdefault("workers", 1)
    return QueryService(schema, bundle.docs, **kwargs)


def inline(service, xpath):
    return service.serve(xpath)


def pooled(service, xpath):
    return service.submit(xpath).result(timeout=30)


BOTH = pytest.mark.parametrize("call", [inline, pooled])


def finish(*threads: threading.Thread) -> None:
    """Join with a bound, then check the thread really ended."""
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)


def pool_threads() -> list[str]:
    return [t.name for t in threading.enumerate()
            if t.name.startswith(POOL_PREFIX)]


def record_executing_thread(service) -> list[str]:
    """Shim ``backend.execute`` to note which thread runs each query."""
    names: list[str] = []
    original = service.backend.execute

    def noting(statement):
        names.append(threading.current_thread().name)
        return original(statement)

    service.backend.execute = noting
    return names


@contextlib.contextmanager
def parked_in_execute(service):
    """Shim ``backend.execute`` to wait on a gate; yields ``(gate,
    entered)`` where ``entered`` counts the callers parked inside. The
    gate opens on exit whatever happened, so a failed assertion cannot
    leave a request parked under a draining ``close()``."""
    gate = threading.Event()
    entered = threading.Semaphore(0)
    original = service.backend.execute

    def gated(statement):
        entered.release()
        assert gate.wait(timeout=30)
        return original(statement)

    service.backend.execute = gated
    try:
        yield gate, entered
    finally:
        gate.set()


# ----------------------------------------------------------------------
# Which thread runs the request
# ----------------------------------------------------------------------


class TestWhichThread:
    def test_serve_runs_on_the_caller_and_starts_no_pool_thread(self, dblp):
        assert not pool_threads()
        with make_service(dblp, workers=4) as service:
            names = record_executing_thread(service)
            for _ in range(5):
                assert service.serve(QUERY).rows
            assert names == [threading.current_thread().name] * 5
            assert not pool_threads()

    def test_serve_runs_on_whichever_thread_calls_it(self, dblp):
        with make_service(dblp) as service:
            names = record_executing_thread(service)
            client = threading.Thread(target=service.serve, args=(QUERY,),
                                      name="some-client")
            client.start()
            finish(client)
            assert names == ["some-client"]

    def test_submit_runs_on_a_pool_thread(self, dblp):
        with make_service(dblp, workers=2) as service:
            names = record_executing_thread(service)
            assert service.submit(QUERY).result(timeout=30).rows
            assert len(names) == 1 and names[0].startswith(POOL_PREFIX)
            assert names[0] != threading.current_thread().name

    def test_serve_from_a_done_callback_completes(self, dblp):
        """With one worker, a callback that serves again used to wait on
        the very thread it was running on."""
        with make_service(dblp, workers=1) as service, \
                parked_in_execute(service) as (gate, entered):
            chained: list = []
            finished = threading.Event()

            def then(future) -> None:
                try:
                    chained.append(service.serve(QUERY))
                finally:
                    finished.set()

            first = service.submit(QUERY)
            first.add_done_callback(then)   # attached while it is parked,
            assert entered.acquire(timeout=30)   # so it runs on the worker
            gate.set()
            assert finished.wait(timeout=30)
            assert chained and chained[0].rows == first.result().rows


# ----------------------------------------------------------------------
# Same safety, same order, same counts — through both APIs
# ----------------------------------------------------------------------


class TestSameSafetyOnBothPaths:
    @BOTH
    def test_closed_service_refuses(self, dblp, call):
        service = make_service(dblp)
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            call(service, QUERY)
        assert service._inflight == 0 and service.stats().errors == 0

    @BOTH
    def test_open_breaker_sheds_without_touching_the_backend(self, dblp,
                                                             call):
        breaker = CircuitBreaker(window=8, min_requests=4,
                                 failure_threshold=0.5, probe_rate=1e-9)
        for _ in range(4):
            breaker.record(False)
        assert breaker.state == OPEN
        with make_service(dblp, breaker=breaker) as service:
            names = record_executing_thread(service)
            for _ in range(3):
                with pytest.raises(CircuitOpenError):
                    call(service, QUERY)
            stats = service.stats()
            assert not names
            assert stats.breaker["fast_fails"] == 3
            assert stats.requests == stats.errors == stats.shed == 0
            assert service._inflight == 0

    @BOTH
    def test_half_open_probe_closes_the_breaker(self, dblp, call):
        breaker = CircuitBreaker(window=8, min_requests=4,
                                 failure_threshold=0.5, probe_rate=1.0)
        for _ in range(4):
            breaker.record(False)
        with make_service(dblp, breaker=breaker) as service:
            assert call(service, QUERY).rows
            snapshot = service.stats().breaker
            assert snapshot["state"] == "closed" and snapshot["probes"] == 1

    @BOTH
    def test_full_queue_sheds_the_next_arrival(self, dblp, call):
        """``workers + max_queue`` callers parked inside the backend
        fill the admission bound whatever API the next one uses."""
        with make_service(dblp, workers=1, max_queue=2) as service, \
                parked_in_execute(service) as (gate, entered):
            parked = [threading.Thread(target=service.serve, args=(QUERY,))
                      for _ in range(3)]
            for thread in parked:
                thread.start()
            for _ in parked:
                assert entered.acquire(timeout=30)
            assert service._inflight == 3
            with pytest.raises(ServiceOverloaded, match="3 in flight"):
                call(service, QUERY)
            gate.set()
            finish(*parked)
            stats = service.stats()
            assert (stats.shed, stats.requests, stats.errors) == (1, 3, 0)
            assert service._inflight == 0

    @BOTH
    def test_overrun_deadline_times_out(self, dblp, call):
        install_fault_plan("serve.request:1:hang:0.3")
        with make_service(dblp, deadline=0.05) as service:
            with pytest.raises(RequestTimeout, match="queue wait included"):
                call(service, QUERY)
            stats = service.stats()
            assert (stats.timeouts, stats.errors, stats.requests,
                    stats.retries) == (1, 1, 0, 0)
            assert service._inflight == 0

    def test_transient_then_success_is_retried_invisibly(self, dblp):
        """The fault stream is seeded, so both APIs see the same
        attempts fail: same retries, request by request."""
        policy = RetryPolicy(max_attempts=4, backoff=0.0)

        def run(call):
            with make_service(dblp, retry_policy=policy) as service:
                baseline = call(service, QUERY)
                install_fault_plan("seed=8;backend.execute:0.3:transient")
                results = [call(service, QUERY) for _ in range(20)]
                install_fault_plan(NULL_PLAN)
                stats = service.stats()
                assert all(r.rows == baseline.rows for r in results)
                assert stats.errors == 0 and service._inflight == 0
                assert stats.retries == sum(r.retries for r in results) > 0
                return [r.retries for r in results]

        assert run(inline) == run(pooled)

    @BOTH
    def test_fatal_errors_raise_and_count(self, dblp, call):
        with make_service(dblp) as service:
            with pytest.raises(XPathError):
                call(service, "//inproceedings[")
            install_fault_plan("backend.execute:1:fatal")
            with pytest.raises(InjectedFault):
                call(service, QUERY)
            stats = service.stats()
            assert (stats.errors, stats.retries, stats.requests) == (2, 0, 0)
            assert service._inflight == 0


class TestHowOftenTheStatementRuns:
    """What a request counts is not enough: a path that ran an attempt
    twice could still count right. These pin the runs themselves, one
    recorded thread name per call of ``backend.execute``."""

    @BOTH
    def test_a_fatal_fault_runs_the_statement_once(self, dblp, call):
        with make_service(dblp) as service:
            calls = record_executing_thread(service)
            install_fault_plan("backend.execute:1:fatal")
            with pytest.raises(InjectedFault):
                call(service, QUERY)
            assert len(calls) == 1
            assert service.stats().retries == 0

    @BOTH
    def test_an_always_transient_fault_runs_it_max_attempts_times(
            self, dblp, call):
        policy = RetryPolicy(max_attempts=3, backoff=0.0)
        with make_service(dblp, retry_policy=policy) as service:
            calls = record_executing_thread(service)
            install_fault_plan("backend.execute:1:transient")
            with pytest.raises(InjectedFault):
                call(service, QUERY)
            stats = service.stats()
            assert len(calls) == policy.max_attempts
            assert stats.retries == policy.max_attempts - 1
            assert stats.errors == 1

    @BOTH
    def test_a_deadline_overrun_runs_it_zero_times(self, dblp, call):
        install_fault_plan("serve.request:1:hang:0.3")
        with make_service(dblp, deadline=0.05) as service:
            calls = record_executing_thread(service)
            with pytest.raises(RequestTimeout):
                call(service, QUERY)
            assert calls == []


# ----------------------------------------------------------------------
# What the pool used to do on the side
# ----------------------------------------------------------------------


class TestThePoolsSideJobs:
    def test_close_waits_for_an_inline_request(self, dblp):
        """``close()`` used to drain the pool only; an inline request
        on another thread would have lost its connection mid-query."""
        service = make_service(dblp)
        answers: list = []
        client = threading.Thread(
            target=lambda: answers.append(service.serve(QUERY)))
        closer = threading.Thread(target=service.close)
        with parked_in_execute(service) as (_, entered):
            client.start()
            assert entered.acquire(timeout=30)
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive()            # blocked on the parked one
            with pytest.raises(ServiceError):   # ... and already refusing
                service.serve(QUERY)
        finish(closer, client)
        assert answers and answers[0].rows
        assert service.backend.open_connections == 0

    def test_close_without_drain_does_not_wait(self, dblp):
        service = make_service(dblp)
        outcome: list = []

        def client() -> None:
            try:
                outcome.append(service.serve(QUERY))
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome.append(exc)

        thread = threading.Thread(target=client)
        with parked_in_execute(service) as (_, entered):
            thread.start()
            assert entered.acquire(timeout=30)
            service.close(drain=False)      # returns with it still parked
            assert service._inflight == 1
        finish(thread)
        # "executing requests fail": its connection was closed under it.
        assert len(outcome) == 1 and isinstance(outcome[0], Exception)

    def test_one_shot_clients_leave_no_connections_behind(self, dblp):
        """Every thread that ever executed a query used to keep its
        connection until close(); the pool capped that at ``workers``,
        callers that come and go do not."""
        with make_service(dblp) as service:
            assert service.serve(QUERY).rows
            backend = service.backend
            before = backend.open_connections
            for _ in range(50):
                client = threading.Thread(target=service.serve,
                                          args=(QUERY,))
                client.start()
                finish(client)
                # Opening a connection releases the finished threads':
                # never more than the last client's is left over.
                assert len(backend._connections) <= before + 1
            assert backend.open_connections == before
            assert service.stats().requests == 51

    def test_closed_loop_runs_leave_no_connections_behind(self, dblp):
        bundle, _ = dblp
        mix = zipf_mix(bundle.workload_generator(seed=7).generate(4))
        with make_service(dblp) as service:
            before = service.backend.open_connections
            for _ in range(3):
                report = LoadGenerator(service, mix, seed=7, mode="closed",
                                       clients=4).run(requests=40)
                assert report.errors == 0
            assert service.backend.open_connections == before
            assert not pool_threads()


    def test_many_inline_callers_keep_the_books_straight(self, dblp):
        """More callers than cores, a 10 µs switch interval, clients
        that come and go while others stay: every request is answered
        and counted once, nothing stays in flight, and no connection
        outlives its thread. A lost update on ``_inflight`` or on the
        connection list breaks one of the four."""
        clients, rounds, each = 8, 4, 25
        failures: list = []

        def client(service) -> None:
            try:
                for _ in range(each):
                    assert service.serve(QUERY).rows
            except Exception as exc:  # noqa: BLE001 - asserted below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_service(dblp, workers=2) as service:
                before = service.backend.open_connections
                for _ in range(rounds):
                    batch = [threading.Thread(target=client,
                                              args=(service,))
                             for _ in range(clients)]
                    for thread in batch:
                        thread.start()
                    finish(*batch)
                stats = service.stats()
                assert not failures
                assert stats.requests == clients * rounds * each
                assert stats.errors == 0 and service._inflight == 0
                assert service.backend.open_connections == before
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# The service's own clock
# ----------------------------------------------------------------------


class TestLatencyClock:
    def test_queue_wait_counts_pooled_requests_only(self, dblp):
        with make_service(dblp, workers=2) as service:
            for _ in range(5):
                service.serve(QUERY)
            assert service.stats().queue_wait["count"] == 0
            assert "pool queue wait" not in service.stats().describe()
            for future in [service.submit(QUERY) for _ in range(3)]:
                future.result(timeout=30)
            stats = service.stats()
            assert stats.requests == 8
            assert stats.queue_wait["count"] == 3
            assert "pool queue wait (3 submitted)" in stats.describe()

    def test_seconds_run_from_admission_not_from_worker_entry(self, dblp):
        """A request that waited behind a busy worker reports the wait:
        ``seconds`` shares the deadline's anchor."""
        with make_service(dblp, workers=1) as service, \
                parked_in_execute(service) as (gate, entered):
            first = service.submit(QUERY)
            assert entered.acquire(timeout=30)
            second = service.submit(QUERY)      # queued behind the first
            time.sleep(0.1)
            gate.set()
            assert first.result(timeout=30).seconds >= 0.1
            assert second.result(timeout=30).seconds >= 0.1
            stats = service.stats()
            assert stats.queue_wait["count"] == 2
            assert stats.queue_wait["max"] >= 0.1
            assert stats.latency["max"] >= stats.queue_wait["max"]
