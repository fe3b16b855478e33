"""The long-lived query service.

:class:`QueryService` is the artifact that makes "serve a tuned design"
concrete: load a mapped schema's shredded data into a SQLite backend
**once**, build the recommended physical configuration, and then answer
XPath queries from many concurrent clients. Per request it:

1. resolves the XPath through the LRU :class:`~repro.serve.PlanCache`
   (translation paid once per query *shape*; the request's literal is
   bound, not translated) with **one** probe, whose
   own hit/miss answer is the request's ``cached_plan``,
2. executes the SQL on the executing thread's own SQLite connection
   (the backend opens one per thread and releases it when the thread
   ends — see ``repro.backends.dbms``),
3. records a ``serve.request`` span and a latency-histogram
   observation on the service's metric registry.

Every count has one store. The service's own ``serve.service``
:class:`~repro.obs.MetricRegistry` (the tracer's — ``serve.service#2``
and so on for a second service on the same tracer — or a private one
under the null tracer) holds ``errors``, ``requests_shed``,
``request_retries``, ``request_timeouts``, ``breaker_fast_fails``, the
``request_seconds`` histogram, whose count *is* the number of served
requests, and ``queue_wait_seconds`` (pooled requests only); the plan
cache holds its own hits/misses/evictions;
:meth:`QueryService.stats` only reads them.

Two client APIs, routed by which one the caller chose and by nothing
about the request: :meth:`serve` is synchronous and runs the request
**on the calling thread** — the caller is blocked until the answer
exists anyway, so a hand-off to another thread buys nothing and costs
more than a warm point query; :meth:`submit` is asynchronous, returns a
future, and runs the request on the service's thread pool (``workers``
threads, started on first use). Both go through one admission
(:meth:`QueryService._admit`) and one request path
(:meth:`QueryService._handle`), so the fault site, deadline
checks, retries, breaker accounting and error counts are the same code
for both, and every answer — cached plan or not — is the
plan-cache-translated, real-DBMS-executed result.

Resilience (docs/resilience.md, docs/serving.md):

* **admission control** — at most ``workers + max_queue`` requests
  are in flight, inline and pooled together; past the bound
  :meth:`serve` and :meth:`submit` fast-fail with
  :class:`ServiceOverloaded` instead of growing an unbounded pool
  queue (deterministic load shedding: whether a request is shed
  depends only on how many are in flight when it arrives);
* **deadlines** — ``deadline`` bounds each request's total latency
  *from admission*, queue wait included; a request over its deadline
  dies with :class:`RequestTimeout` and is never retried;
* **retries** — transient faults (``SQLITE_BUSY`` under WAL, injected
  transients) are retried in place per the
  :class:`~repro.resilience.RetryPolicy`, invisibly to the client;
* **circuit breaking** — a :class:`~repro.resilience.CircuitBreaker`
  watches outcomes and, once tripped, sheds requests with
  :class:`CircuitOpenError` except for seeded half-open probes, so a
  dead backend costs microseconds per request instead of a timeout
  each, and chaos runs replay deterministically.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

from ..backends import RelationalBackend, backend_factory
from ..errors import ReproError
from ..mapping import MappedSchema
from ..obs import MetricRegistry, NullTracer, Tracer, get_tracer
from ..physdesign import Configuration
from ..resilience import (RETRYABLE_CATEGORIES, CircuitBreaker, RetryPolicy,
                          active_fault_plan, classify, note_suppressed)
from ..xpath import XPathQuery
from .plan_cache import PlanCache

__all__ = ["QueryService", "ServeResult", "ServiceError", "ServiceStats",
           "ServiceOverloaded", "RequestTimeout", "CircuitOpenError"]


class ServiceError(ReproError):
    """The query service was misused (not started, already closed)."""


class ServiceOverloaded(ServiceError):
    """Admission control shed the request: the queue is full."""


class RequestTimeout(ServiceError):
    """The request exceeded its deadline (queue wait included)."""


class CircuitOpenError(ServiceError):
    """The circuit breaker is open; the request was fast-failed."""


class ServeResult(NamedTuple):
    """One served request: rows plus request-level metadata."""

    xpath: str
    rows: list[tuple]
    seconds: float         # from admission, pool queue wait included
    plan_key: str
    cached_plan: bool      # True: the plan came from the cache
    retries: int = 0       # transparent transient-fault re-attempts


class _Request(NamedTuple):
    """One admitted request, on its way to the thread that runs it."""

    xpath: XPathQuery | str
    enqueued: float        # perf_counter at admission: the deadline's
                           # and the latency clock's anchor
    probe: bool = False    # a breaker half-open trial


@dataclass
class ServiceStats:
    """Aggregate counters snapshot for one service."""

    requests: int = 0
    errors: int = 0
    shed: int = 0          # fast-failed by admission control
    retries: int = 0       # transient re-attempts across all requests
    timeouts: int = 0      # requests killed by their deadline
    breaker: dict = field(default_factory=dict)
    plan_cache: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)
    queue_wait: dict = field(default_factory=dict)  # submit() only

    def describe(self) -> str:
        lines = [f"requests: {self.requests} ({self.errors} errors)"]
        lines.append(
            f"resilience: shed {self.shed}  retries {self.retries}  "
            f"deadline timeouts {self.timeouts}")
        if self.breaker:
            lines.append(
                "breaker: {state} (trips {trips}, probes {probes}, "
                "fast-fails {fast_fails})".format(**self.breaker))
        if self.latency.get("count"):
            lines.append(
                "latency: p50 {p50:.6f}s  p95 {p95:.6f}s  p99 {p99:.6f}s  "
                "max {max:.6f}s".format(**self.latency))
        if self.queue_wait.get("count"):
            lines.append(
                "pool queue wait ({count} submitted): p50 {p50:.6f}s  "
                "p95 {p95:.6f}s  max {max:.6f}s".format(**self.queue_wait))
        cache = self.plan_cache
        if cache:
            lines.append(
                f"plan cache: {cache['entries']:.0f}/{cache['capacity']:.0f} "
                f"entries, {cache['hits']:.0f} hits / "
                f"{cache['misses']:.0f} misses "
                f"({cache['hit_rate']:.1%}), "
                f"{cache['evictions']:.0f} evictions")
        return "\n".join(lines)


class QueryService:
    """Serve XPath queries over one loaded design.

    ``db_path=None`` serves from a shared in-memory SQLite database;
    a path serves from that file, reopened **read-only** (serving
    connections physically cannot write). :meth:`serve` runs on the
    calling thread; ``workers`` sizes the thread pool behind
    :meth:`submit` and, with ``max_queue``, the admission bound both
    share. Every thread that executes a request — caller or pool
    worker — gets its own connection on first use, released when the
    thread ends. ``load_batch_size`` overrides the startup bulk load's
    streaming chunk size — with a lazy document (``stream=True``
    datasets) the service can load far more data than fits in memory
    as a materialized tree (docs/scaling.md).

    Resilience knobs (see the module docstring): at most ``workers +
    max_queue`` requests are in flight (``max_queue=None`` =
    unbounded); ``deadline`` is the per-request wall-clock budget in
    seconds from admission (``None`` = none); ``retry_policy`` governs
    transparent retries of transient faults (default:
    :meth:`RetryPolicy.from_env`); ``breaker`` replaces the default
    :class:`CircuitBreaker` (seeded 0) e.g. to reseed its probe
    schedule or disable it via a never-tripping threshold.
    """

    def __init__(self, schema: MappedSchema, docs,
                 configuration: Configuration | None = None,
                 workers: int = 4, plan_cache_size: int = 128,
                 db_path: str | None = None,
                 load_batch_size: int | None = None,
                 max_queue: int | None = 1024,
                 deadline: float | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 backend: str = "sqlite",
                 tracer: Tracer | NullTracer | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend == "engine":
            raise ValueError(
                "the query service serves from a real DBMS backend "
                "(sqlite or duckdb), not the in-memory engine")
        if max_queue is not None and max_queue < 0:
            raise ValueError("max_queue must be >= 0 (None = unbounded)")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 (None = no deadline)")
        self.tracer = tracer if tracer is not None else get_tracer()
        # The counts are service state, not optional telemetry —
        # stats() reads them even under the (default) null tracer,
        # whose registries discard increments — and each service's
        # own: two services on one tracer must not count each other.
        self._metrics = (self.tracer.own_metrics("serve.service")
                         if self.tracer.enabled
                         else MetricRegistry("serve.service"))
        self._latency = self._metrics.histogram("request_seconds")
        self._queue_wait = self._metrics.histogram("queue_wait_seconds")
        self.schema = schema
        self.configuration = configuration or Configuration()
        self.workers = workers
        self.max_queue = max_queue
        self.deadline = deadline
        self.retry_policy = retry_policy or RetryPolicy.from_env()
        self.breaker = breaker or CircuitBreaker()
        self._closed = False
        # Admission state: ``_inflight`` counts requests admitted but
        # not yet finished (queued + executing, inline + pooled).
        # Guarded by its own lock, which also serializes the
        # admit-vs-close decision; ``_drained`` is how a draining
        # close() learns that the last of them has finished.
        self._inflight = 0
        self._admission_lock = threading.Lock()
        self._drained = threading.Condition(self._admission_lock)

        self.backend_name = backend
        make_backend = backend_factory(backend)
        with self.tracer.span("serve.startup", workers=workers,
                              backend=backend):
            # If startup dies mid-load on a file database *we* created,
            # remove it — otherwise a retry of the same command hits
            # "table already exists" on the partial file. A
            # pre-existing file is never deleted.
            created = db_path is not None and not os.path.exists(db_path)
            loader: RelationalBackend | None = None
            try:
                loader = make_backend(db_path or ":memory:",
                                      tracer=self.tracer)
                load_kwargs = ({"batch_size": load_batch_size}
                               if load_batch_size else {})
                loader.load(schema, docs, **load_kwargs)
                loader.apply_configuration(self.configuration)
                if db_path is None:
                    self.backend: RelationalBackend = loader
                else:
                    # Load and build DDL through a writable connection,
                    # then serve through read-only worker connections
                    # on the same file.
                    loader.close()
                    self.backend = make_backend(db_path,
                                                tracer=self.tracer,
                                                read_only=True)
                    # No DDL: registers the view tables just built, so
                    # both paths serve the same SQL text.
                    self.backend.apply_configuration(self.configuration)
            except BaseException:
                if loader is not None:
                    loader.close()
                if created and db_path is not None:
                    # Side files: SQLite's -wal/-shm, DuckDB's .wal.
                    for suffix in ("", "-wal", "-shm", ".wal"):
                        try:
                            os.remove(db_path + suffix)
                        except OSError:
                            pass
                raise
        self.plan_cache = PlanCache(
            schema, capacity=plan_cache_size, tracer=self.tracer,
            render=(self.backend.sql_text
                    if self.backend.dialect.parameter(1) is not None
                    else None))
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _check_deadline(self, enqueued: float) -> None:
        if self.deadline is None:
            return
        elapsed = time.perf_counter() - enqueued
        if elapsed > self.deadline:
            self._metrics.incr("request_timeouts")
            raise RequestTimeout(
                f"request exceeded its {self.deadline:.3f}s deadline "
                f"({elapsed:.3f}s elapsed, queue wait included)")

    def _handle(self, request: _Request,
                pooled: bool = False) -> ServeResult:
        """The one request path: :meth:`serve` runs it on the caller,
        the pool as :meth:`submit`'s entry (``pooled``: the queue wait
        is noted first). It records every outcome here, so the counts
        survive callers that drop their futures, and releases
        ``_inflight``; a failure is re-raised to the caller or Future."""
        xpath, enqueued, probe = request
        if pooled:
            self._queue_wait.observe(time.perf_counter() - enqueued)
        try:
            with self.tracer.span("serve.request") as span:
                # The injection point for request-level chaos: a
                # ``hang`` rule here overruns the deadline, a
                # ``transient`` fails the request before the backend
                # is touched.
                active_fault_plan().maybe_raise("serve.request")
                self._check_deadline(enqueued)
                plan, was_cached = self.plan_cache.get_or_translate(xpath)
                # Retried in place: only RETRYABLE_CATEGORIES failures
                # (injected transients, SQLITE_BUSY as BackendBusyError),
                # never a timeout — a request over its deadline is dead
                # however retryable the error.
                retries = 0
                while True:
                    self._check_deadline(enqueued)
                    try:
                        rows = self.backend.execute(plan.statement)
                        break
                    except Exception as exc:
                        if (classify(exc) not in RETRYABLE_CATEGORIES
                                or retries + 1
                                >= self.retry_policy.max_attempts):
                            raise
                        note_suppressed(exc, "serve.retry", self.tracer)
                        retries += 1
                        self._metrics.incr("request_retries")
                        time.sleep(self.retry_policy.backoff_for(retries))
                seconds = time.perf_counter() - enqueued
                span.set("plan_key", plan.key)
                span.set("cached_plan", was_cached)
                span.set("rows", len(rows))
                span.set("seconds", seconds)
            self._latency.observe(seconds)
        except Exception as exc:
            note_suppressed(exc, "serve.request", self.tracer)
            self._metrics.incr("errors")
            self.breaker.record(False, probe=probe)
            raise
        else:
            self.breaker.record(True, probe=probe)
            return ServeResult(plan.xpath, rows, seconds, plan.key,
                               was_cached, retries)
        finally:
            with self._admission_lock:
                self._inflight -= 1
                if self._closed:
                    self._drained.notify_all()

    def _admit(self, xpath: XPathQuery | str) -> _Request:
        """Admit one request or raise; the caller holds
        ``_admission_lock``.

        A closed service raises :class:`ServiceError`, an open circuit
        breaker :class:`CircuitOpenError` (unless this arrival is a
        scheduled probe), and a full queue :class:`ServiceOverloaded` —
        in that order, without touching the backend or the pool, so
        rejection stays microseconds even when the backend is wedged.
        An admitted request counts as in flight until :meth:`_handle`
        releases it.
        """
        if self._closed:
            raise ServiceError("query service is closed")
        decision = self.breaker.admit()
        if decision == "shed":
            self._metrics.incr("breaker_fast_fails")
            raise CircuitOpenError(
                "circuit breaker is open; request fast-failed")
        if (self.max_queue is not None
                and self._inflight >= self.workers + self.max_queue):
            self._metrics.incr("requests_shed")
            raise ServiceOverloaded(
                f"admission queue is full ({self._inflight} in "
                f"flight, max_queue={self.max_queue})")
        self._inflight += 1
        return _Request(xpath, time.perf_counter(), decision == "probe")

    def submit(self, xpath: XPathQuery | str) -> "Future[ServeResult]":
        """Asynchronously serve one query on the service's thread pool
        (the open-loop client API).

        Admission (:meth:`_admit`) happens here, synchronously; the
        request then waits for one of the ``workers`` pool threads.
        """
        with self._admission_lock:
            request = self._admit(xpath)
            try:
                return self._pool.submit(self._handle, request, True)
            except RuntimeError as exc:
                # close() raced us to the executor; surface the
                # library's error type, not the pool's internal one.
                self._inflight -= 1
                raise ServiceError("query service is closed") from exc

    def serve(self, xpath: XPathQuery | str) -> ServeResult:
        """Serve one query on the calling thread (closed-loop API).

        Same admission as :meth:`submit`, then the request runs right
        here: the caller would be blocked until the answer exists
        anyway, so there is no thread to hand it to. ``N`` threads
        calling ``serve`` run ``N``-wide whatever ``workers`` says —
        only the admission bound limits them.
        """
        with self._admission_lock:
            request = self._admit(xpath)
        return self._handle(request)

    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        count = self._metrics.get
        latency = self._latency.snapshot()
        return ServiceStats(requests=latency["count"],
                            errors=count("errors"),
                            shed=count("requests_shed"),
                            retries=count("request_retries"),
                            timeouts=count("request_timeouts"),
                            breaker=self.breaker.snapshot(),
                            plan_cache=self.plan_cache.stats(),
                            latency=latency,
                            queue_wait=self._queue_wait.snapshot())

    def close(self, drain: bool = True) -> None:
        """Stop the service: reject new requests, then shut down.

        ``drain=True`` (the default) finishes every in-flight request —
        queued in the pool, executing on it, or executing inline on a
        caller's thread — before closing the backend; ``drain=False``
        cancels queued requests and closes immediately (executing
        requests fail).
        """
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
            while drain and self._inflight:
                self._drained.wait()
        self._pool.shutdown(wait=drain, cancel_futures=not drain)
        self.backend.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
