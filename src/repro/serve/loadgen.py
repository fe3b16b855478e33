"""Closed- and open-loop load generation against a query service.

The two classic load models (the difference matters: closed loops
self-throttle under slowdown, open loops do not):

* **closed loop** — ``clients`` concurrent clients, each issuing its
  next query the moment the previous answer returns
  (:meth:`QueryService.serve`, so each client thread executes its own
  requests and the run is ``clients`` wide whatever the service's
  ``workers``). Throughput is what the service sustains.
* **open loop** — requests arrive on a fixed Poisson schedule of
  ``rate`` requests/second regardless of completions
  (:meth:`QueryService.submit`, executed by the service's pool), so a
  service slower than the arrival rate accumulates queueing latency.
  The arrival schedule is drawn from its own seeded RNG stream.

Determinism contract: which query is request #k (and, open loop, when
it arrives) is a pure function of ``(mix, seed)`` — the schedule is
drawn from one :class:`~repro.workload.MixSampler` in dispatch order,
under a lock, so thread interleaving can change completion order and
latencies but never the sequence. :attr:`LoadReport.sequence_digest`
pins that in tests and CI.

Latencies are **client-observed**: measured from the moment a request
is handed to the service (closed loop) or from its scheduled arrival
(open loop) until its answer returns — open loop, queueing inside the
service's pool is part of the number, exactly as a client would
experience it.
Report percentiles are exact order statistics over those latencies;
the service's always-on histogram metric is the estimated counterpart.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from ..obs import NullTracer, Tracer, get_tracer
from ..workload import MixSampler, QueryMix
from .service import QueryService

__all__ = ["LoadGenerator", "LoadReport", "RequestRecord"]


@dataclass
class RequestRecord:
    """Outcome of one generated request (index = schedule position)."""

    index: int
    query_index: int
    xpath: str
    seconds: float = 0.0
    rows: int = 0
    cached_plan: bool = False
    error: str | None = None
    digest: str | None = None  # result-rows digest (byte-identity checks)
    retries: int = 0           # transparent retries inside the service


def _rows_digest(rows: list[tuple]) -> str:
    """Order-sensitive digest of a result set, for byte-identity checks
    between chaos and fault-free runs."""
    text = "\n".join(repr(row) for row in rows)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def _complete(record: RequestRecord, since: float, outcome) -> None:
    """Fill ``record`` from ``outcome()`` — the request's
    :class:`ServeResult` or its raise — with latency from ``since``."""
    try:
        result = outcome()
    except Exception as exc:  # noqa: BLE001 - a load test records,
        record.error = f"{type(exc).__name__}: {exc}"  # never raises
        return
    record.seconds = time.perf_counter() - since
    record.rows = len(result.rows)
    record.cached_plan = result.cached_plan
    record.digest = _rows_digest(result.rows)
    record.retries = result.retries


def _percentile(sorted_values: list[float], p: float) -> float:
    """Exact percentile (nearest-rank) of pre-sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(1, round(p / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class LoadReport:
    """Result of one load-generator run."""

    mode: str
    seed: int
    clients: int
    workers: int
    rate: float | None
    wall_seconds: float = 0.0
    records: list[RequestRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def completed(self) -> list[RequestRecord]:
        return [r for r in self.records if r.error is None]

    @property
    def errors(self) -> int:
        return sum(1 for r in self.records if r.error is not None)

    @property
    def qps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.completed) / self.wall_seconds

    @property
    def sequence(self) -> list[int]:
        return [r.query_index for r in self.records]

    @property
    def sequence_digest(self) -> str:
        text = ",".join(str(i) for i in self.sequence)
        return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]

    @property
    def cached_plan_rate(self) -> float:
        done = self.completed
        if not done:
            return 0.0
        return sum(1 for r in done if r.cached_plan) / len(done)

    @property
    def errors_by_type(self) -> dict[str, int]:
        """Failed-request counts keyed by exception type name."""
        counts = Counter(r.error.split(":", 1)[0]
                         for r in self.records if r.error is not None)
        return dict(sorted(counts.items()))

    @property
    def by_query(self) -> dict[str, dict[str, int]]:
        """Requests and errors per query text, in query-text order."""
        traffic = {xpath: {"requests": 0, "errors": 0}
                   for xpath in sorted({r.xpath for r in self.records})}
        for record in self.records:
            counts = traffic[record.xpath]
            counts["requests"] += 1
            counts["errors"] += record.error is not None
        return traffic

    @property
    def shed(self) -> int:
        """Requests fast-failed by admission control or the breaker."""
        by_type = self.errors_by_type
        return (by_type.get("ServiceOverloaded", 0)
                + by_type.get("CircuitOpenError", 0))

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    @property
    def results_digest(self) -> str:
        """Digest over every successful request's result rows, keyed by
        schedule index.

        Two runs of the same seeded chaos plan agree iff the same
        requests succeeded *and* each returned byte-identical rows —
        the reproducibility acceptance check. Byte-identity against a
        fault-free run is checked per record (compare ``digest`` at
        equal ``index``), since chaos changes *which* requests fail,
        never what success returns.
        """
        parts = [f"{r.index}:{r.digest}" for r in self.records
                 if r.error is None]
        return hashlib.sha1("\n".join(parts).encode("utf-8")
                            ).hexdigest()[:16]

    def latency(self, p: float) -> float:
        """Exact p-th percentile latency over completed requests."""
        return _percentile(sorted(r.seconds for r in self.completed), p)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "clients": self.clients,
            "workers": self.workers,
            "rate": self.rate,
            "requests": len(self.records),
            "errors": self.errors,
            "wall_seconds": round(self.wall_seconds, 6),
            "qps": round(self.qps, 3),
            "latency_seconds": {
                "p50": round(self.latency(50), 6),
                "p95": round(self.latency(95), 6),
                "p99": round(self.latency(99), 6),
            },
            "cached_plan_rate": round(self.cached_plan_rate, 4),
            "sequence_digest": self.sequence_digest,
            "results_digest": self.results_digest,
            "shed": self.shed,
            "retries": self.total_retries,
            "errors_by_type": self.errors_by_type,
            "by_query": self.by_query,
        }

    def describe(self) -> str:
        head = (f"{self.mode}-loop load: {len(self.records)} requests, "
                f"{self.errors} errors, {self.clients} clients over "
                f"{self.workers} workers")
        if self.rate is not None:
            head += f", target {self.rate:g} req/s"
        lines = [
            head,
            f"wall time: {self.wall_seconds:.3f}s   QPS: {self.qps:.1f}",
            f"latency: p50 {self.latency(50) * 1e3:.3f}ms  "
            f"p95 {self.latency(95) * 1e3:.3f}ms  "
            f"p99 {self.latency(99) * 1e3:.3f}ms",
            f"served from cached plan: {self.cached_plan_rate:.1%}   "
            f"sequence digest: {self.sequence_digest}",
            f"shed: {self.shed}   retries: {self.total_retries}   "
            f"results digest: {self.results_digest}",
        ]
        if self.errors:
            by_type = ", ".join(f"{name} x{count}" for name, count
                                in self.errors_by_type.items())
            lines.append(f"errors by type: {by_type}")
        return "\n".join(lines)


class _Schedule:
    """Lazily draws the deterministic request schedule, thread-safely.

    Records are created in sampler order under one lock, so request #k
    carries the k-th drawn query no matter which client thread claimed
    it.
    """

    def __init__(self, mix: QueryMix, seed: int,
                 limit: int | None, deadline: float | None):
        self.mix = mix
        self.sampler = MixSampler(mix, seed)
        self.limit = limit
        self.deadline = deadline
        self.records: list[RequestRecord] = []
        self._lock = threading.Lock()

    def claim(self) -> RequestRecord | None:
        """The next scheduled request, or None when the run is over."""
        if self.deadline is not None and \
                time.perf_counter() >= self.deadline:
            return None
        with self._lock:
            index = len(self.records)
            if self.limit is not None and index >= self.limit:
                return None
            query_index = self.sampler.sample_index()
            record = RequestRecord(
                index=index, query_index=query_index,
                xpath=str(self.mix.queries[query_index]))
            self.records.append(record)
        return record


class LoadGenerator:
    """Drive a :class:`QueryService` with a seeded query mix."""

    def __init__(self, service: QueryService, mix: QueryMix, seed: int,
                 mode: str = "closed", clients: int = 4,
                 rate: float = 200.0,
                 tracer: Tracer | NullTracer | None = None):
        if mode not in ("closed", "open"):
            raise ValueError(f"unknown load mode {mode!r}")
        if clients < 1:
            raise ValueError("clients must be >= 1")
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.service = service
        self.mix = mix
        self.seed = seed
        self.mode = mode
        self.clients = clients
        self.rate = rate
        self.tracer = tracer if tracer is not None else get_tracer()

    # ------------------------------------------------------------------
    def schedule(self, requests: int) -> list[int]:
        """The deterministic query-index schedule for ``requests``."""
        return MixSampler(self.mix, self.seed).sequence(requests)

    # ------------------------------------------------------------------
    def run(self, requests: int | None = None,
            duration: float | None = None) -> LoadReport:
        """Generate load until ``requests`` are sent or ``duration``
        seconds elapse (whichever bound is given; both = first hit)."""
        if requests is None and duration is None:
            raise ValueError("give requests=, duration=, or both")
        with self.tracer.span("serve.loadgen", mode=self.mode,
                              clients=self.clients) as span:
            started = time.perf_counter()
            deadline = started + duration if duration is not None else None
            schedule = _Schedule(self.mix, self.seed, requests, deadline)
            if self.mode == "closed":
                self._run_closed(schedule)
            else:
                self._run_open(schedule, started)
            wall = time.perf_counter() - started
            span.set("requests", len(schedule.records))
            span.set("seconds", wall)
        return LoadReport(mode=self.mode, seed=self.seed,
                          clients=self.clients,
                          workers=self.service.workers,
                          rate=self.rate if self.mode == "open" else None,
                          wall_seconds=wall, records=schedule.records)

    # ------------------------------------------------------------------
    def _run_closed(self, schedule: _Schedule) -> None:
        """``clients`` threads each issue the next scheduled request as
        soon as their previous one completes."""
        def client() -> None:
            while True:
                record = schedule.claim()
                if record is None:
                    return
                _complete(record, time.perf_counter(),
                          partial(self.service.serve, record.xpath))

        threads = [threading.Thread(target=client, name=f"loadgen-{i}")
                   for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _run_open(self, schedule: _Schedule, started: float) -> None:
        """Dispatch requests on the fixed arrival schedule; completions
        are recorded from done-callbacks the moment they happen, so a
        long dispatch loop never inflates an early request's latency.
        Latency runs from the scheduled arrival, not from the moment
        the dispatcher got round to submitting: a dispatcher running
        late is queueing the client sees (no coordinated omission)."""
        # The arrival process gets its own RNG stream so adding or
        # removing arrival draws can never shift the query sequence.
        arrival_rng = random.Random(self.seed ^ 0x5DEECE66D)
        futures = []
        due = 0.0
        while True:
            due += arrival_rng.expovariate(self.rate)
            if schedule.deadline is not None and \
                    started + due >= schedule.deadline:
                break
            record = schedule.claim()
            if record is None:
                break
            now = time.perf_counter() - started
            if due > now:
                time.sleep(due - now)
            try:
                future = self.service.submit(record.xpath)
            except Exception as exc:  # noqa: BLE001
                record.error = f"{type(exc).__name__}: {exc}"
                continue
            future.add_done_callback(
                lambda f, r=record, t=started + due:
                _complete(r, t, f.result))
            futures.append(future)
        for future in futures:
            future.exception()  # wait; errors were recorded by callbacks
