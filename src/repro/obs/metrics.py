"""Per-component metric registries.

A :class:`MetricRegistry` is a named bag of monotonically increasing
counters — cheap enough to increment on hot paths (``database``,
``advisor``, ``evaluator`` components), cheap to snapshot, and
deterministic to render (counters sorted by name). Registries also
hand out :class:`LatencyHistogram` instances for distributions (the
query service records one observation per served request).
"""

from __future__ import annotations

import bisect
import math
import threading

__all__ = ["LatencyHistogram", "MetricRegistry", "NullMetricRegistry",
           "NULL_METRICS"]


def _log_bucket_bounds(lo: float, hi: float) -> list[float]:
    """Log-spaced upper bounds from ``lo`` to ``hi`` (inclusive), ten
    per decade."""
    n = max(1, round(math.log10(hi / lo) * 10))
    return [lo * (hi / lo) ** (i / n) for i in range(n + 1)]


class LatencyHistogram:
    """Fixed log-scale buckets over seconds; thread-safe to observe.

    Buckets span 10 µs .. 100 s, ten per decade; observations outside
    the range land in the first/last bucket. Percentiles are estimated
    by linear interpolation inside the winning bucket — good to bucket
    resolution, which is what a load report needs (the raw per-request
    latencies stay available to callers that want exact order
    statistics).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "_max",
                 "_lock")

    def __init__(self, name: str, lo: float = 1e-5, hi: float = 100.0):
        self.name = name
        self.bounds = _log_bucket_bounds(lo, hi)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        index = bisect.bisect_left(self.bounds, seconds)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += seconds
            if seconds > self._max:
                self._max = seconds

    # ------------------------------------------------------------------
    def _state(self) -> tuple[int, float, list[int], float]:
        """One consistent copy of the mutable state, taken under the
        lock. Every read-side statistic is computed from such a copy —
        reading ``count``/``total``/``counts`` individually while
        workers ``observe()`` would tear mid-update (e.g. ``total``
        already bumped, ``count`` not yet)."""
        with self._lock:
            return self.count, self.total, list(self.counts), self._max

    @property
    def mean(self) -> float:
        count, total, _, _ = self._state()
        return total / count if count else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    @staticmethod
    def _percentile_of(state: tuple[int, float, list[int], float],
                       bounds: list[float], p: float) -> float:
        count, _, counts, maximum = state
        if count == 0:
            return 0.0
        rank = p / 100.0 * count
        seen = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lo = bounds[index - 1] if index > 0 else 0.0
                hi = (bounds[index] if index < len(bounds) else maximum)
                fraction = (rank - seen) / bucket_count
                return min(lo + (hi - lo) * fraction, maximum)
            seen += bucket_count
        return maximum

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (0 < p <= 100) in seconds."""
        return self._percentile_of(self._state(), self.bounds, p)

    # Locks don't pickle; checkpointed objects (e.g. the evaluator memo)
    # may carry a registry, so serialize the data and rebuild the lock.
    def __getstate__(self) -> dict:
        count, total, counts, maximum = self._state()
        return {"name": self.name, "bounds": self.bounds, "counts": counts,
                "count": count, "total": total, "_max": maximum}

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_lock", threading.Lock())

    def snapshot(self) -> dict[str, float]:
        """Count, mean, max, and the standard latency percentiles.

        All figures derive from a *single* locked copy of the state, so
        the snapshot is internally consistent even while workers are
        observing (``mean * count == total`` exactly, percentiles and
        count describe the same instant).
        """
        state = self._state()
        count, total, _, maximum = state
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "max": maximum,
            "p50": self._percentile_of(state, self.bounds, 50),
            "p95": self._percentile_of(state, self.bounds, 95),
            "p99": self._percentile_of(state, self.bounds, 99),
        }

    def nonzero_buckets(self) -> list[tuple[float, int]]:
        """(upper bound seconds, count) for occupied buckets, in order."""
        _, _, counts, _ = self._state()
        out = []
        for index, bucket_count in enumerate(counts):
            if bucket_count:
                bound = (self.bounds[index] if index < len(self.bounds)
                         else math.inf)
                out.append((bound, bucket_count))
        return out


class MetricRegistry:
    """Named counters (plus histograms) for one component.

    Thread-safe: ``incr`` is called concurrently from serve-pool worker
    threads, and a bare dict read-modify-write would lose increments
    under load (pinned by the hammer regression test in
    ``tests/test_obs.py``). All counter and histogram-map mutations
    happen under one registry lock.
    """

    __slots__ = ("component", "counters", "histograms", "_lock")

    def __init__(self, component: str):
        self.component = component
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, LatencyHistogram] = {}
        self._lock = threading.Lock()

    def incr(self, name: str, delta: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def get(self, name: str) -> float:
        with self._lock:
            return self.counters.get(name, 0)

    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = LatencyHistogram(name)
            return histogram

    def snapshot(self) -> dict[str, float]:
        """Counters sorted by name (deterministic rendering order);
        histograms are flattened as ``<name>.<stat>`` entries."""
        with self._lock:
            counters = dict(self.counters)
            histograms = dict(self.histograms)
        out = {name: counters[name] for name in sorted(counters)}
        for name in sorted(histograms):
            for stat, value in histograms[name].snapshot().items():
                out[f"{name}.{stat}"] = value
        return out

    # Same pickling story as LatencyHistogram: drop the lock, rebuild.
    def __getstate__(self) -> dict:
        with self._lock:
            return {"component": self.component,
                    "counters": dict(self.counters),
                    "histograms": dict(self.histograms)}

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_lock", threading.Lock())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetricRegistry {self.component!r} {self.snapshot()}>"


class _NullHistogram(LatencyHistogram):
    """The disabled histogram: observations vanish."""

    def observe(self, seconds: float) -> None:
        pass


_NULL_HISTOGRAM = _NullHistogram("null")


class NullMetricRegistry(MetricRegistry):
    """The disabled registry: increments vanish."""

    def __init__(self):
        super().__init__("null")

    def incr(self, name: str, delta: float = 1) -> None:
        pass

    def histogram(self, name: str) -> LatencyHistogram:
        return _NULL_HISTOGRAM


NULL_METRICS = NullMetricRegistry()
