"""Persistent cross-run evaluation cache.

Costing a mapping is the search layer's unit of work: schema
derivation, workload translation, and a full tuning-advisor run with
dozens of what-if optimizer calls. Repeated benchmark and experiment
runs over the same (workload, statistics, storage bound) problem re-pay
all of it from scratch. This module makes evaluations durable: results
are keyed by ``(mapping digest, workload digest, stats digest,
storage bound)`` and serialized under a cache directory, so a warm
rerun of the same search performs zero evaluations.

Key structure
-------------

* the **problem digest** hashes the workload (queries, weights, insert
  loads), the collected statistics, and the storage bound — anything
  that changes evaluation results changes the digest, so stale entries
  are simply never looked up (invalidation by key);
* the **mapping digest** identifies the candidate mapping
  (:func:`repro.search.evaluator.mapping_digest`);
* the **kind** separates exact evaluations from partial (cost-derived)
  ones, whose results additionally depend on the reused per-query costs
  — those are folded into an **extra** digest.

Entries live at ``<root>/<problem digest>/<kind>-<mapping digest>
[-<extra>].pkl``. Infeasible mappings are cached too (a pickled
``None``), so a workload that cannot be translated under some mapping
is not re-attempted on every run.

Hits served from this store are *warm* hits (they crossed a process
boundary); hits served from a :class:`MappingEvaluator`'s in-memory
memo are *cold* hits. Both are counted under separate ``repro.obs``
metrics (``evalcache.warm_hits`` vs. ``evaluator.cache_hits_*``) —
see docs/performance.md.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ..mapping import CollectedStats
from ..obs import NullTracer, Tracer, get_tracer
from ..resilience import active_fault_plan, note_suppressed
from ..workload import Workload

__all__ = ["CacheKey", "EvaluationCache", "default_cache_dir",
           "problem_digest", "stats_digest", "workload_digest"]

#: Bump when the pickled payload layout or the digest recipe changes;
#: old entries become unreachable (different problem digest) instead of
#: being deserialized wrongly.
CACHE_VERSION = 3  # 3: ColumnSpec.features, DispatchEntry atoms (pickled layouts)


def _sha(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _canonical(value) -> str:
    """A run-to-run-stable serialization of plain data structures.

    ``repr`` alone is not enough: set/frozenset iteration order depends
    on string hashing, and dict order on insertion history. Containers
    are therefore serialized with sorted members — including dict
    *keys*, which may themselves be frozensets (the joint-presence
    statistics) whose repr order changes with ``PYTHONHASHSEED``;
    leaves fall back to ``repr`` (value-based for the dataclasses used
    in statistics).
    """
    if isinstance(value, (Counter, dict)):
        items = sorted(((_canonical(k), _canonical(v))
                        for k, v in value.items()))
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    return repr(value)


def workload_digest(workload: Workload) -> str:
    """Digest of the queries, weights, and insert loads (not the name)."""
    parts = [f"{q.weight!r}|{q.query}" for q in workload.queries]
    parts += [f"insert|{u.weight!r}|{u.target}" for u in workload.updates]
    return _sha("\n".join(parts))


def stats_digest(collected: CollectedStats) -> str:
    """Digest of the finest-granularity collected statistics."""
    return _sha(_canonical({
        "total_elements": collected.total_elements,
        "instance_counts": collected.instance_counts,
        "leaf_stats": {k: repr(v) for k, v in collected.leaf_stats.items()},
        "cardinality": collected.cardinality,
        "joint": collected.joint,
    }))


def problem_digest(workload: Workload, collected: CollectedStats,
                   storage_bound: int | None) -> str:
    """One digest for everything that determines evaluation results."""
    return _sha(f"v{CACHE_VERSION}|{workload_digest(workload)}"
                f"|{stats_digest(collected)}|{storage_bound!r}")


@dataclass(frozen=True)
class CacheKey:
    """Address of one persisted evaluation."""

    problem: str
    mapping: str
    kind: str = "exact"
    extra: str = ""

    def relative_path(self) -> Path:
        name = f"{self.kind}-{self.mapping}"
        if self.extra:
            name += f"-{self.extra}"
        return Path(self.problem[:16]) / f"{name}.pkl"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/evals``."""
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "evals"


class EvaluationCache:
    """File-backed store of :class:`EvaluatedMapping` results.

    The cache never invalidates by time or heuristics — every input
    that affects a result is part of its key, so entries are immutable
    facts about a problem. ``clear``/``invalidate`` exist for disk
    hygiene, not correctness.
    """

    def __init__(self, root: str | Path | None = None,
                 tracer: Tracer | NullTracer | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._metrics = self.tracer.metrics("evalcache")

    # ------------------------------------------------------------------
    def _path(self, key: CacheKey) -> Path:
        return self.root / key.relative_path()

    def get(self, key: CacheKey) -> tuple[bool, object]:
        """``(found, value)``; a found ``None`` is a cached infeasible
        mapping, which is why the flag is separate from the value."""
        fault = active_fault_plan().fire("cache.read")
        if fault is not None:
            # An unreadable store degrades to a miss: the evaluation is
            # recomputed, never lost.
            self._metrics.incr("read_faults")
            self._metrics.incr("misses")
            return False, None
        path = self._path(key)
        try:
            payload = path.read_bytes()
        except OSError:
            self._metrics.incr("misses")
            return False, None
        try:
            value = pickle.loads(payload)
        except Exception as exc:
            # A truncated/stale entry behaves like a miss and is removed
            # so it cannot mask itself as warm forever. The recovery is
            # recorded durably (``recoveries.log``) so ``repro cache
            # report`` can surface how often the store healed itself.
            note_suppressed(exc, "evalcache.load", self.tracer)
            path.unlink(missing_ok=True)
            self._record_recovery(path)
            self._metrics.incr("corrupt_entries")
            self._metrics.incr("misses")
            return False, None
        self._metrics.incr("warm_hits")
        return True, value

    def put(self, key: CacheKey, value: object) -> None:
        payload = pickle.dumps(value)
        fault = active_fault_plan().fire("cache.write")
        if fault is not None:
            if fault.kind != "torn":
                self._metrics.incr("write_faults")
                return  # a failed store degrades to a no-op
            # A torn write persists a half-written entry — the read
            # side must recover from it (see ``get``).
            payload = payload[:max(len(payload) // 2, 1)]
            self._metrics.incr("torn_writes")
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return  # a read-only cache dir degrades to a no-op store
        self._metrics.incr("stores")

    # ------------------------------------------------------------------
    @property
    def _recovery_log(self) -> Path:
        return self.root / "recoveries.log"

    def _record_recovery(self, path: Path) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self._recovery_log, "a", encoding="utf-8") as fh:
                fh.write(f"{path.parent.name}/{path.name}\n")
        except OSError:
            pass  # accounting must never make recovery itself fail

    def recoveries(self) -> int:
        """How many corrupt entries this store has ever recovered from."""
        try:
            with open(self._recovery_log, encoding="utf-8") as fh:
                return sum(1 for line in fh if line.strip())
        except OSError:
            return 0

    def invalidate(self, key: CacheKey) -> bool:
        """Drop one entry; ``True`` when it existed."""
        path = self._path(key)
        existed = path.exists()
        path.unlink(missing_ok=True)
        if existed:
            self._metrics.incr("invalidations")
        return existed

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        if not self.root.exists():
            return []
        return sorted(self.root.rglob("*.pkl"))

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        # Prune now-empty problem directories.
        if self.root.exists():
            for child in sorted(self.root.iterdir()):
                if child.is_dir():
                    try:
                        child.rmdir()
                    except OSError:
                        pass
        self._recovery_log.unlink(missing_ok=True)
        self._metrics.incr("clears")
        return removed

    def report(self) -> str:
        """Human-readable summary for the ``repro cache`` CLI."""
        entries = self.entries()
        total_bytes = sum(path.stat().st_size for path in entries)
        per_problem: Counter = Counter(path.parent.name for path in entries)
        per_kind: Counter = Counter(path.name.split("-", 1)[0]
                                    for path in entries)
        lines = [f"cache root: {self.root}",
                 f"entries: {len(entries)} "
                 f"({total_bytes / 1024:.1f} KB)"]
        for kind in sorted(per_kind):
            lines.append(f"  {kind}: {per_kind[kind]}")
        for problem in sorted(per_problem):
            lines.append(f"  problem {problem}: {per_problem[problem]} "
                         f"entries")
        recovered = self.recoveries()
        if recovered:
            lines.append(f"corrupt entries recovered: {recovered}")
        return "\n".join(lines)
