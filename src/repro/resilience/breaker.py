"""An error-rate circuit breaker with a seeded probe schedule.

A :class:`CircuitBreaker` protects a request path from pouring work
into a backend that has started failing wholesale. It watches a
sliding window of request outcomes and runs a two-state machine:

* **closed** — requests flow; outcomes are recorded. When the window
  holds at least ``min_requests`` outcomes and the failure fraction
  reaches ``failure_threshold``, the breaker *trips* to open.
* **open** — requests **fast-fail** (the caller rejects them without
  touching the backend) except for scheduled *probes*: an arrival
  while open is admitted as a half-open trial when a deterministic
  draw from ``(seed, trip number, arrivals since the trip)`` falls
  below ``probe_rate``. A probe that succeeds closes the breaker (the
  window restarts empty); a probe that fails leaves it open and the
  schedule simply continues.

Determinism is the point of the seeded schedule: given the same
sequence of arrivals and outcomes, the breaker trips, probes, and
recovers at exactly the same points on every run — the same hashing
idiom as :class:`~repro.resilience.faults.FaultPlan`, so chaos-serve
runs are reproducible in CI. The class is thread-safe; under
concurrent arrivals the *decisions* stay a pure function of each
arrival's position in the serialized order the lock imposes. A
closed-state ``admit`` takes no lock: it changes nothing, so it has no
place in that order, and its ``"allow"`` is what a locked read of the
state the last ``record`` left would decide at the same moment.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque

__all__ = ["CircuitBreaker", "CLOSED", "OPEN"]

#: Breaker states (``snapshot()["state"]``).
CLOSED = "closed"
OPEN = "open"


class CircuitBreaker:
    """Trip to fast-fail on a high error rate; recover via probes."""

    def __init__(self, window: int = 64, min_requests: int = 16,
                 failure_threshold: float = 0.5,
                 probe_rate: float = 0.25, seed: int = 0):
        if window < 1:
            raise ValueError("window must be >= 1")
        if min_requests < 1:
            raise ValueError("min_requests must be >= 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if not 0.0 < probe_rate <= 1.0:
            raise ValueError("probe_rate must be in (0, 1]")
        self.window = window
        self.min_requests = min_requests
        self.failure_threshold = failure_threshold
        self.probe_rate = probe_rate
        self.seed = seed
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._failures = 0       # of the outcomes in the window
        self._arrivals = 0       # since the last trip (open state only)
        self.trips = 0
        self.probes = 0
        self.probe_failures = 0
        self.fast_fails = 0

    # ------------------------------------------------------------------
    def _probe_draw(self, arrival: int) -> float:
        digest = hashlib.sha1(
            f"{self.seed}|{self.trips}|{arrival}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def admit(self) -> str:
        """Decide one arrival: ``"allow"``, ``"probe"``, or ``"shed"``.

        ``shed`` means the caller must fast-fail the request without
        executing it; ``probe`` means execute it and report the outcome
        with ``record(..., probe=True)`` — it is the half-open trial.
        """
        if self._state == CLOSED:
            return "allow"      # decides nothing: no lock (module doc)
        with self._lock:
            if self._state == CLOSED:
                return "allow"
            self._arrivals += 1
            if self._probe_draw(self._arrivals) < self.probe_rate:
                self.probes += 1
                return "probe"
            self.fast_fails += 1
            return "shed"

    def record(self, success: bool, probe: bool = False) -> None:
        """Report the outcome of an admitted (or probe) request."""
        with self._lock:
            if probe:
                if success:
                    self._state = CLOSED
                    self._outcomes.clear()
                    self._failures = 0
                else:
                    self.probe_failures += 1
                return
            if self._state == OPEN:
                # A request admitted before the trip finishing after it
                # carries no information about the current state.
                return
            outcomes = self._outcomes
            if len(outcomes) == self.window and not outcomes[0]:
                self._failures -= 1     # the append below evicts it
            outcomes.append(success)
            if not success:
                self._failures += 1
            n = len(outcomes)
            if n >= self.min_requests and \
                    self._failures / n >= self.failure_threshold:
                self._state = OPEN
                self.trips += 1
                self._arrivals = 0
                outcomes.clear()
                self._failures = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def snapshot(self) -> dict:
        """Counters + state, for :meth:`QueryService.stats` and reports."""
        with self._lock:
            return {
                "state": self._state,
                "trips": self.trips,
                "probes": self.probes,
                "probe_failures": self.probe_failures,
                "fast_fails": self.fast_fails,
            }
