"""The spine's own load driver.

It calls only ``QueryService.serve`` / ``QueryService.submit``. The
request sequence is a pure function of ``(weights, seed)``; a closed
arm sends a client's next request when the previous one is in hand, an
open arm sends on a fixed schedule and times every request **from when
it was due**, so a stall is charged to the requests it delays. Answers
are compared with the oracle's rows on the caller's side, never on a
worker thread.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from itertools import accumulate

#: Open-loop latency limit on p95 for ``serve.open_max_rate_ok``.
OPEN_P95_LIMIT_MS = 5.0


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``p`` % of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * p // 100))      # ceil without floats
    return ordered[int(rank) - 1]


def supported_tail(n: int) -> int:
    """The highest of p99/p95/p90 with at least ten samples beyond it
    (50 when the sample supports none of them)."""
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def zipf_weights(n: int, skew: float) -> list[float]:
    """Rank ``r`` gets weight ``1 / r**skew``; ``skew=0`` is uniform."""
    return [1.0 / (rank + 1) ** skew for rank in range(n)]


class Schedule:
    """Seeded stream of query indices drawn with the given weights."""

    def __init__(self, weights, seed: int):
        self._cumulative = list(accumulate(weights))
        self._population = range(len(self._cumulative))
        self._rng = random.Random(seed)
        self._chunk: list[int] = []

    def __iter__(self):
        return self

    def __next__(self) -> int:
        if not self._chunk:
            self._chunk = self._rng.choices(
                self._population, cum_weights=self._cumulative, k=4096)
            self._chunk.reverse()
        return self._chunk.pop()


class Passes:
    """Seeded stream of whole passes: every index once, in a fresh
    shuffled order each pass."""

    def __init__(self, n: int, seed: int):
        self._order = list(range(n))
        self._rng = random.Random(seed)
        self._left: list[int] = []

    def __iter__(self):
        return self

    def __next__(self) -> int:
        if not self._left:
            self._rng.shuffle(self._order)
            self._left = self._order[::-1]
        return self._left.pop()


def sequence_digest(schedule, n: int = 4096) -> str:
    """Digest of the next ``n`` indices of a fresh schedule."""
    head = ",".join(str(next(schedule)) for _ in range(n))
    return hashlib.sha1(head.encode("ascii")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
@dataclass
class Slice:
    """One closed-loop slice of one client."""

    wall: float
    cpu: float                       # process CPU over the slice
    latencies: list[float]           # verified answers only
    failed: int = 0                  # raised, or rows != oracle rows

    @property
    def qps(self) -> float:
        return len(self.latencies) / self.wall


def closed_slice(service, queries, expected, schedule, seconds: float,
                 on_request=None) -> Slice:
    """Serve back to back for ``seconds``; ``on_request(t0, t1)`` (the
    traced pass) is called after each answer is in hand."""
    latencies: list[float] = []
    failed = 0
    clock = time.perf_counter
    cpu0 = time.process_time()
    start = clock()
    end = start + seconds
    while True:
        t0 = clock()
        if t0 >= end:
            break
        index = next(schedule)
        try:
            rows = service.serve(queries[index]).rows
        except Exception:   # any failure is a failed request, counted
            failed += 1
            continue
        t1 = clock()
        if on_request is not None:
            on_request(t0, t1)
        if rows == expected[index]:
            latencies.append(t1 - t0)
        else:
            failed += 1
    return Slice(clock() - start, time.process_time() - cpu0, latencies,
                 failed)


def contended_slice(service, queries, expected, weights, seed: int,
                    seconds: float, clients: int = 2) -> Slice:
    """``clients`` closed-loop clients at once, merged into one slice."""
    parts: list[Slice] = []

    def client(number: int) -> None:
        parts.append(closed_slice(service, queries, expected,
                                  Schedule(weights, seed + number),
                                  seconds))

    threads = [threading.Thread(target=client, args=(n,))
               for n in range(1, clients + 1)]
    cpu0 = time.process_time()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return Slice(wall, time.process_time() - cpu0,
                 [x for part in parts for x in part.latencies],
                 sum(part.failed for part in parts))


@dataclass
class ClosedSummary:
    """Slice medians: the gated serving numbers."""

    qps: float
    p50_ms: float
    p95_ms: float
    cpu_us_per_req: float
    slices: int
    requests: int                    # verified answers, all slices
    failed: int
    min_slice_requests: int
    outliers: int                    # slices > 25 % off the median qps


def summarize_closed(slices: list[Slice]) -> ClosedSummary:
    qps = statistics.median(s.qps for s in slices)
    requests = sum(len(s.latencies) for s in slices)
    return ClosedSummary(
        qps=qps,
        p50_ms=1e3 * statistics.median(
            percentile(s.latencies, 50) for s in slices),
        p95_ms=1e3 * statistics.median(
            percentile(s.latencies, 95) for s in slices),
        cpu_us_per_req=1e6 * sum(s.cpu for s in slices) / requests,
        slices=len(slices),
        requests=requests,
        failed=sum(s.failed for s in slices),
        min_slice_requests=min(len(s.latencies) for s in slices),
        outliers=sum(1 for s in slices if abs(s.qps - qps) > 0.25 * qps),
    )


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
@dataclass
class OpenResult:
    rate: float
    latencies: list[float] = field(default_factory=list)   # from due time
    late: list[float] = field(default_factory=list)  # generator lateness
    shed: int = 0
    failed: int = 0
    backlog_half: int = 0
    backlog_end: int = 0

    def p_ms(self, p: float) -> float:
        return 1e3 * percentile(self.latencies, p)

    @property
    def ok(self) -> bool:
        """p95 within the limit, nothing shed, backlog not growing."""
        return (self.shed == 0 and self.failed == 0
                and self.p_ms(95) <= OPEN_P95_LIMIT_MS
                and self.backlog_end <= self.backlog_half + 8)


def open_arm(service, queries, expected, schedule, rate: float,
             seconds: float) -> OpenResult:
    """Submit at ``rate`` req/s for ``seconds`` from this one thread."""
    from repro.serve import ServiceOverloaded

    result = OpenResult(rate)
    total = max(1, int(rate * seconds))
    done: list[tuple[float, float]] = []       # (finished, due)
    pending = []
    clock = time.perf_counter

    def finished(due):
        # Runs on the worker thread: one clock read and one append.
        return lambda _future: done.append((clock(), due))

    start = clock() + 0.005
    for k in range(total):
        due = start + k / rate
        while True:
            now = clock()
            if now >= due:
                break
            # Sleep, never spin: a spinning generator holds the GIL and
            # starves the workers it is measuring.
            time.sleep(max(0.0, due - now - 0.00005))
        result.late.append(now - due)
        index = next(schedule)
        try:
            future = service.submit(queries[index])
        except ServiceOverloaded:
            result.shed += 1
            continue
        future.add_done_callback(finished(due))
        pending.append((index, future))
        if k == total // 2:
            result.backlog_half = len(pending) - len(done)
    result.backlog_end = len(pending) - len(done)
    for index, future in pending:
        try:
            if future.result(timeout=60).rows != expected[index]:
                result.failed += 1
        except Exception:   # any failure is a failed request, counted
            result.failed += 1
    deadline = clock() + 5.0
    while len(done) < len(pending) and clock() < deadline:
        time.sleep(0.001)       # a callback may trail its future's result
    result.latencies = [end - due for end, due in done]
    return result
