"""Retry, deadline, and degradation policy for evaluations.

One :class:`RetryPolicy` governs every evaluation a search performs:

* **retry** — an evaluation that dies with a retryable fault (an
  injected transient, a broken worker, an OS hiccup) is re-attempted up
  to ``max_attempts`` times with exponential backoff; a retry that
  succeeds is *counter-invisible* (the evaluation is counted once, the
  retry separately), so a chaos run with recoverable faults produces
  the same counters and the same :class:`DesignResult` as a fault-free
  run.
* **deadline** — with ``timeout`` set, a pooled evaluation that does
  not finish in time is abandoned: the worker pool degrades (the hung
  worker is left behind) and the candidate is classified
  *infeasible-by-fault*; the search continues without it.
* **degradation** — after retries are exhausted the candidate likewise
  becomes infeasible-by-fault instead of aborting the search; the
  drop is recorded on the search counters and ``repro.obs`` metrics,
  never silently.

Fault-caused ``None`` results are **never memoized**: a candidate
dropped by a fault in one round must stay evaluable in the next.

Environment knobs: ``REPRO_RETRY_ATTEMPTS``, ``REPRO_RETRY_BACKOFF``
(seconds, exponential base), ``REPRO_EVAL_TIMEOUT`` (seconds, pooled
evaluations only).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..obs import NullTracer, Tracer
from .faults import classify

__all__ = ["RetryPolicy", "note_suppressed"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and an optional deadline."""

    max_attempts: int = 3
    backoff: float = 0.01        # seconds; attempt n sleeps backoff * 2^(n-1)
    timeout: float | None = None  # per-evaluation deadline (pool only)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0 seconds "
                             f"(got {self.backoff})")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, or None for "
                             f"no deadline (got {self.timeout})")

    def backoff_for(self, attempt: int) -> float:
        """Sleep before re-attempt number ``attempt`` (1-based)."""
        return self.backoff * (2 ** max(attempt - 1, 0))

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """The policy the ``REPRO_RETRY_*`` / ``REPRO_EVAL_TIMEOUT``
        variables set; an unset or empty one keeps its default, and a
        value that does not parse is refused, naming the variable."""
        def read(name: str, parse, default):
            raw = os.environ.get(name, "").strip()
            if not raw:
                return default
            try:
                return parse(raw)
            except ValueError:
                raise ValueError(f"{name}={raw!r} is not a valid "
                                 f"{parse.__name__}") from None

        return cls(max_attempts=read("REPRO_RETRY_ATTEMPTS", int, 3),
                   backoff=read("REPRO_RETRY_BACKOFF", float, 0.01),
                   timeout=read("REPRO_EVAL_TIMEOUT", float, None))


def note_suppressed(exc: BaseException, site: str,
                    tracer: Tracer | NullTracer) -> str:
    """Record a deliberately swallowed failure; returns its category.

    Every ``except`` block in the search path that skips a candidate
    instead of propagating routes through here, so no failure is ever
    silently invisible: the fault classifier buckets it, a
    ``resilience`` metric counts it, and (when tracing) an event marks
    where it happened.
    """
    category = classify(exc)
    tracer.metrics("resilience").incr(f"suppressed.{category}.{site}")
    if tracer.enabled:
        tracer.event("suppressed_failure", site=site, category=category,
                     error=type(exc).__name__)
    return category
