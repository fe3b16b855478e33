"""The serving layer: a long-lived query service plus a load harness.

The advisor designs a schema; this package *serves* it. A
:class:`QueryService` loads one tuned design into a SQLite backend
once, translates XPath through an LRU :class:`PlanCache`, and answers
queries on the caller's thread (``serve``) or from a thread pool
(``submit``), one backend connection per executing thread. A
:class:`LoadGenerator` drives it in closed- or open-loop mode with a
seeded Zipf query mix and reports p50/p95/p99 latency and QPS. See
docs/serving.md.
"""

from .loadgen import LoadGenerator, LoadReport, RequestRecord
from .plan_cache import CachedPlan, PlanCache
from .service import (CircuitOpenError, QueryService, RequestTimeout,
                      ServeResult, ServiceError, ServiceOverloaded,
                      ServiceStats)

__all__ = [
    "QueryService",
    "ServeResult",
    "ServiceError",
    "ServiceOverloaded",
    "RequestTimeout",
    "CircuitOpenError",
    "ServiceStats",
    "PlanCache",
    "CachedPlan",
    "LoadGenerator",
    "LoadReport",
    "RequestRecord",
]
