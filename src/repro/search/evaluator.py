"""Shared machinery: evaluate the cost of one (or many) mappings.

Evaluating a mapping (paper Fig. 2's loop body) means:

1. derive its relational schema,
2. install stats-only tables with statistics *derived* from the
   fully-split collection (no data is ever loaded during search),
3. translate the XPath workload to SQL against that schema,
4. call the physical design tool (tuning advisor), which returns the
   recommended configuration, per-query estimated costs, and the object
   sets ``I(Q, M)``.

There is one costing body, :meth:`MappingEvaluator.evaluate_uncached`,
over one work unit ``(mapping, reuse, carried)``: ``reuse`` maps
workload indices to already-known per-query costs (Section 4.8) and
``carried`` the object sets they were derived with. An *exact*
evaluation is the one with nothing reused; spans and metrics are named
``exact``/``partial`` after whether ``reuse`` is empty.

Evaluations are memoized per evaluator (one search run), keyed
``(mapping signature, reuse key, carried key)`` — this implements the
paper's "carefully avoids searching duplicated mappings". Every advisor
gets a fresh stats-only database whose access-path table remembers the
plan choice of each SELECT for the length of one tune.

:meth:`MappingEvaluator.snapshot` / :meth:`~MappingEvaluator.restore`
hand the memo to the checkpoint codec (``repro.resilience.checkpoint``);
nothing outside this module reads it directly.

Independent candidates are costed concurrently by
:meth:`MappingEvaluator.evaluate_many` /
:meth:`~MappingEvaluator.evaluate_partial_many` — see
``repro.search.parallel`` and docs/performance.md. The serial and
parallel paths produce identical results by construction.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from ..engine import Database
from ..errors import SearchError, TranslationError
from ..mapping import (CollectedStats, MappedSchema, Mapping, derive_schema,
                       derive_table_stats)
from ..obs import NullTracer, Tracer, get_tracer
from ..physdesign import IndexTuningAdvisor, QueryReport, TuningResult
from ..resilience import (RETRYABLE_CATEGORIES, RetryPolicy,
                          active_fault_plan, classify)
from ..sqlast import Query
from ..translate import Translator
from ..workload import Workload
from .parallel import (EvaluationPool, EvaluationTask, WorkerOutput,
                       graft_spans, merge_metrics, resolve_jobs)
from .result import SearchCounters


@dataclass
class EvaluatedMapping:
    """One costed mapping."""

    mapping: Mapping
    schema: MappedSchema
    database: Database
    sql_queries: list[tuple[Query, float]]
    tuning: TuningResult

    @property
    def total_cost(self) -> float:
        return self.tuning.total_cost


def _sha(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _digest(text: str) -> str:
    return _sha(text)[:12]


def mapping_digest(mapping: Mapping) -> str:
    """A short, run-to-run-stable hash of a mapping's signature.

    ``repr`` of the signature tuple is *not* stable across interpreter
    runs (the distributions live in a frozenset whose iteration order
    depends on string hashing), so the set members are serialized
    sorted.
    """
    annotations, split_counts, distributions = mapping.signature()
    canonical = "|".join([repr(annotations), repr(split_counts),
                          ";".join(sorted(repr(d) for d in distributions))])
    return _digest(canonical)


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
    if isinstance(value, dict):
        items = sorted(((_canonical(k), _canonical(v))
                        for k, v in value.items()))
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    return repr(value)


def workload_digest(workload: Workload) -> str:
    """Digest of the queries and weights (not the name)."""
    return _sha("\n".join(f"{q.weight!r}|{q.query}"
                           for q in workload.queries))


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
    """One digest for everything that determines evaluation results —
    the first part of a checkpoint's problem key. It must not follow
    ``PYTHONHASHSEED``, or a resumed run would see another problem."""
    return _sha(f"{workload_digest(workload)}"
                f"|{stats_digest(collected)}|{storage_bound!r}")


def build_stats_only_database(schema: MappedSchema,
                              collected: CollectedStats,
                              name: str | None = None,
                              tracer: Tracer | NullTracer | None = None
                              ) -> Database:
    """A data-free database whose tables carry derived statistics.

    The default name hashes the relational schema's description, so it
    is identical across runs for identical schemas (``id()``-based
    names used to leak run-to-run nondeterminism into traces and
    reports).
    """
    if name is None:
        name = f"whatif:{_digest(schema.describe())}"
    db = Database(name=name, tracer=tracer)
    table_stats = derive_table_stats(schema, collected)
    for table in schema.to_engine_tables():
        db.register_table(table)
    for name_, stats in table_stats.items():
        db.set_table_stats(name_, stats)
    return db


def check_fits(base_mapping: Mapping, collected: CollectedStats,
               storage_bound: int | None) -> None:
    """Refuse, naming both, a storage bound below the base mapping's own
    data (Definition 1's bound, in the bytes the tuning advisor compares
    it with): no physical design can make that mapping fit. A search
    calls it when it cannot cost the mapping it starts from."""
    if storage_bound is None:
        return
    data_bytes = build_stats_only_database(
        derive_schema(base_mapping), collected).catalog.total_data_bytes()
    if data_bytes > storage_bound:
        raise SearchError(
            f"storage bound of {storage_bound} bytes is below the "
            f"{data_bytes} bytes of data of the base mapping")


def translate_workload(workload: Workload, schema: MappedSchema
                       ) -> list[tuple[Query, float]]:
    """The workload's queries as weighted SQL against ``schema``."""
    translator = Translator(schema)
    return [(translator.translate(wq.query), wq.weight) for wq in workload]


def check_rewrite(name: str, before: MappedSchema, after: MappedSchema,
                  tracer: Tracer | NullTracer) -> None:
    """Debug-mode assertion: the rewrite ``name`` kept the mapping lossless.

    Both schemas are already derived, so the coverage comparison is pure
    set arithmetic; a violation raises :class:`~repro.errors.CheckError`
    and aborts the search loudly rather than letting a lossy mapping win
    on a bogus cost.
    """
    from ..check import check_transform, checks_enabled, enforce

    if checks_enabled():
        enforce(check_transform(before, after, name), tracer,
                context=f"transform:{name}")


def _kind(reuse: dict[int, float]) -> str:
    """What spans and metrics call an evaluation."""
    return "partial" if reuse else "exact"


class MappingEvaluator:
    """Costs mappings for one (tree, workload, stats, bound) problem."""

    def __init__(self, workload: Workload, collected: CollectedStats,
                 storage_bound: int | None = None,
                 use_cache: bool = True,
                 counters: SearchCounters | None = None,
                 tracer: Tracer | NullTracer | None = None,
                 jobs: int | None = None,
                 policy: RetryPolicy | None = None):
        self.workload = workload
        self.collected = collected
        self.storage_bound = storage_bound
        self.use_cache = use_cache
        self.counters = counters or SearchCounters()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._metrics = self.tracer.metrics("evaluator")
        self.jobs = resolve_jobs(jobs)
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        self._memo: dict[tuple, EvaluatedMapping | None] = {}
        self._pool: EvaluationPool | None = None

    # ------------------------------------------------------------------
    # Lifecycle / plumbing
    # ------------------------------------------------------------------
    def rebind_tracer(self, tracer: Tracer | NullTracer) -> None:
        """Point instrumentation at another tracer (pool workers reuse
        one evaluator across tasks, each with a fresh tracer)."""
        self.tracer = tracer
        self._metrics = tracer.metrics("evaluator")

    def close(self) -> None:
        """Shut down the worker pool, if one was started."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "MappingEvaluator":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _ensure_pool(self) -> EvaluationPool:
        if self._pool is None:
            self._pool = EvaluationPool(
                self.workload, self.collected, self.storage_bound,
                jobs=self.jobs, tracing=bool(self.tracer.enabled),
                policy=self.policy, counters=self.counters,
                tracer=self.tracer)
        return self._pool

    def snapshot(self) -> dict:
        """What a checkpoint must carry: the memo, so every cache-hit
        (and thus derivation) decision after :meth:`restore` matches the
        uninterrupted run.

        The dict is the live one, not a copy — pickled in one go with
        the search's loop state, objects it shares stay shared.
        """
        return {"memo": self._memo}

    def restore(self, state: dict) -> None:
        """Adopt the memo of a :meth:`snapshot`."""
        self._memo = state["memo"]

    # ------------------------------------------------------------------
    # Single-mapping API
    # ------------------------------------------------------------------
    def evaluate(self, mapping: Mapping) -> EvaluatedMapping | None:
        """Cost a mapping; ``None`` when the workload cannot be
        translated under it (infeasible mapping)."""
        return self.evaluate_many([mapping])[0]

    def cached(self, mapping: Mapping) -> EvaluatedMapping | None:
        """An already-computed exact evaluation, if any (no work done)."""
        if not self.use_cache:
            return None
        return self._memo.get(self._memo_key(mapping, {}, {}))

    # ------------------------------------------------------------------
    # Batch API (the parallel fan-out)
    # ------------------------------------------------------------------
    def evaluate_many(self, mappings: list[Mapping]
                      ) -> list[EvaluatedMapping | None]:
        """Cost several independent mappings as one batch.

        Results align with the input list. Memo lookups happen up
        front; only genuinely new mappings are evaluated — concurrently
        when ``jobs > 1``.
        """
        return self._evaluate_batch([(mapping, {}, {})
                                     for mapping in mappings])

    def evaluate_partial_many(
            self, items: list[tuple[Mapping, dict[int, float],
                                    EvaluatedMapping | None]]
            ) -> list[EvaluatedMapping | None]:
        """Cost mappings, reusing known per-query costs (Section 4.8).

        Each item is ``(mapping, reuse, base)``. ``reuse`` maps workload
        indices to already-known costs; only the remaining queries are
        passed to the physical design tool, which is what makes cost
        derivation cheaper. ``base`` is the evaluation the reused costs
        came from — its per-query reports supply the carried-over
        ``objects_used`` so the synthesized full-workload reports stay
        usable by a later derivation pass. With nothing reused an item
        *is* :meth:`evaluate`.
        """
        return self._evaluate_batch(
            [(mapping, dict(reuse), self._carried_objects(reuse, base))
             for mapping, reuse, base in items])

    def _evaluate_batch(self, tasks: list[EvaluationTask]
                        ) -> list[EvaluatedMapping | None]:
        results: list[EvaluatedMapping | None] = [None] * len(tasks)
        pending: list[tuple[int, EvaluationTask]] = []
        first_position: set[tuple] = set()
        duplicates: list[tuple[int, str, tuple]] = []
        for position, task in enumerate(tasks):
            if not self.use_cache:
                pending.append((position, task))
                continue
            kind = _kind(task[1])
            key = self._memo_key(*task)
            if key in self._memo:
                results[position] = self._record_memory_hit(
                    kind, self._memo[key])
                continue
            if key in first_position:
                # A duplicate inside the batch: costed once, counted as
                # a cache hit — exactly what serial iteration does.
                duplicates.append((position, kind, key))
                continue
            first_position.add(key)
            pending.append((position, task))
        if pending:
            self._compute(pending, results)
        for position, kind, key in duplicates:
            # When the twin evaluation was dropped by a fault (and
            # deliberately not cached), this duplicate is dropped the
            # same way, without counting a hit.
            if key in self._memo:
                results[position] = self._record_memory_hit(
                    kind, self._memo[key])
        return results

    def _compute(self, pending: list[tuple[int, EvaluationTask]],
                 results: list) -> None:
        if self.jobs > 1 and len(pending) > 1:
            outputs = self._ensure_pool().run(
                [task for _, task in pending])
            for (position, task), output in zip(pending, outputs):
                self._absorb(output)
                results[position] = self._finish(task, output.result,
                                                 output.fault)
            return
        for position, task in pending:
            value, fault = self.evaluate_uncached(*task)
            results[position] = self._finish(task, value, fault)

    def evaluate_uncached(self, mapping: Mapping,
                          reuse: dict[int, float] | None = None,
                          carried: dict[int, frozenset] | None = None
                          ) -> tuple[EvaluatedMapping | None, str | None]:
        """One logical evaluation under the retry policy, the memo
        neither consulted nor filled — what pool workers run per work
        unit.

        Returns ``(result, fault_category)``. Retryable failures (an
        injected transient fault, an infrastructure hiccup) are retried
        with backoff up to ``policy.max_attempts``; a retry that
        succeeds leaves the evaluation counters identical to a clean
        run (the evaluation is counted once, re-attempts under
        ``fault_retries``). Exhausted retries classify the candidate as
        infeasible-by-fault — ``(None, category)`` — which callers must
        never cache. Non-retryable failures propagate.
        """
        policy = self.policy
        self.counters.mappings_evaluated += 1
        attempt = 0
        while True:
            attempt += 1
            try:
                active_fault_plan().maybe_raise("evaluate")
                return self._cost(mapping, reuse or {}, carried or {}), None
            except Exception as exc:
                category = classify(exc)
                if category not in RETRYABLE_CATEGORIES:
                    raise
                if attempt >= policy.max_attempts:
                    self.counters.faulted_evaluations += 1
                    self._metrics.incr(f"faulted.{category}")
                    self.tracer.event("evaluation_faulted",
                                      category=category, attempts=attempt)
                    return None, category
                self.counters.fault_retries += 1
                self._metrics.incr("retries")
                self.tracer.event("evaluation_retry", category=category,
                                  attempt=attempt)
                time.sleep(policy.backoff_for(attempt))

    def _finish(self, task: EvaluationTask, value: EvaluatedMapping | None,
                fault: str | None) -> EvaluatedMapping | None:
        """Store a freshly computed result in the memo.

        A fault-caused ``None`` (retries exhausted, deadline fired) is
        *not* a fact about the mapping and is never cached — the
        candidate stays evaluable in later rounds.
        """
        if self.use_cache and fault is None:
            self._memo[self._memo_key(*task)] = value
        return value

    def _absorb(self, output: WorkerOutput) -> None:
        """Fold a worker's counters, metrics, and spans into this run."""
        for name, delta in output.counters.items():
            setattr(self.counters, name, getattr(self.counters, name) + delta)
        if not self.tracer.enabled:
            return
        merge_metrics(self.tracer, output.metrics)
        graft_spans(self.tracer, output.spans)

    # ------------------------------------------------------------------
    # The memo
    # ------------------------------------------------------------------
    @staticmethod
    def _memo_key(mapping: Mapping, reuse: dict[int, float],
                  carried: dict[int, frozenset]) -> tuple:
        return (mapping.signature(),
                frozenset((i, round(cost, 6)) for i, cost in reuse.items()),
                frozenset(carried.items()))

    def _record_memory_hit(self, kind: str,
                           value: EvaluatedMapping | None
                           ) -> EvaluatedMapping | None:
        # Feasible and infeasible lookups are counted apart: a cached
        # ``None`` never saved an advisor call, and folding it into the
        # hit rate used to overstate how much the memo was winning.
        if value is None:
            self.counters.cache_hits_infeasible += 1
            self._metrics.incr(f"cache_hits_{kind}_infeasible")
            self.tracer.event("cache_hit_infeasible", kind=kind)
        else:
            self.counters.cache_hits += 1
            self._metrics.incr(f"cache_hits_{kind}")
            self.tracer.event("cache_hit", kind=kind)
        return value

    # ------------------------------------------------------------------
    # Evaluation proper
    # ------------------------------------------------------------------
    def _check_schema(self, mapping: Mapping, schema: MappedSchema) -> None:
        """Debug-mode assertion: the derived schema is lossless and
        well-formed (raises :class:`~repro.errors.CheckError`)."""
        from ..check import check_schema, checks_enabled, enforce

        if not checks_enabled():
            return
        enforce(check_schema(schema), self.tracer,
                context=f"mapping:{mapping_digest(mapping)}")

    @staticmethod
    def _carried_objects(reuse: dict[int, float],
                         base: EvaluatedMapping | None
                         ) -> dict[int, frozenset]:
        """Object sets the reused costs were derived with, by index."""
        if base is None:
            return {}
        return {i: base.tuning.reports[i].objects_used for i in reuse
                if i < len(base.tuning.reports)}

    def _cost(self, mapping: Mapping, reuse: dict[int, float],
              carried: dict[int, frozenset]) -> EvaluatedMapping | None:
        # ``mappings_evaluated`` is counted by ``evaluate_uncached`` —
        # once per logical evaluation, however many attempts it takes.
        attributes = {"reused": len(reuse)} if reuse else {}
        with self.tracer.span(f"evaluate.{_kind(reuse)}",
                              **attributes) as span:
            schema = derive_schema(mapping)
            self._check_schema(mapping, schema)
            try:
                sql_queries = translate_workload(self.workload, schema)
            except TranslationError:
                span.set("outcome", "translation_failed")
                self._metrics.incr("translation_failures")
                return None
            db = build_stats_only_database(
                schema, self.collected,
                name=f"whatif:{mapping_digest(mapping)}",
                tracer=self.tracer)
            remaining = [(q, w) for i, (q, w) in enumerate(sql_queries)
                         if i not in reuse]
            if reuse:
                span.set("remaining", len(remaining))
            advisor = IndexTuningAdvisor(db, tracer=self.tracer)
            try:
                tuning = advisor.tune(remaining, self.storage_bound)
            except SearchError:
                span.set("outcome", "tuning_failed")
                self._metrics.incr("tuning_failures")
                return None
            self.counters.tuner_calls += 1
            self.counters.optimizer_calls += tuning.optimizer_calls
            self.counters.derived_query_costs += len(reuse)
            full = self._align(tuning, sql_queries, reuse, carried)
            span.set("outcome", "ok")
            span.set("total_cost", full.total_cost)
            span.set("database", db.name)
            return EvaluatedMapping(mapping=mapping, schema=schema,
                                    database=db, sql_queries=sql_queries,
                                    tuning=full)

    @staticmethod
    def _align(tuning: TuningResult,
               sql_queries: list[tuple[Query, float]],
               reuse: dict[int, float],
               carried: dict[int, frozenset]) -> TuningResult:
        """Rebuild a tuning result on full-workload positions.

        The advisor only saw the non-reused queries, so its ``reports``
        list is shorter than the workload and indexed by *remaining*
        position. Consumers (``CostDerivation.reusable_costs``,
        ``TuningResult.cost_of``) index reports by full-workload
        position; returning the advisor's result unmodified silently
        misaligned every downstream per-query lookup. Reused queries get
        a synthesized report carrying their derived cost and the object
        set of the evaluation they were derived from.
        """
        remaining_reports = iter(tuning.reports)
        reports: list[QueryReport] = []
        reused_cost = 0.0
        for i, (query, weight) in enumerate(sql_queries):
            if i in reuse:
                reports.append(QueryReport(
                    query=query, weight=weight, cost=reuse[i],
                    objects_used=carried.get(i, frozenset())))
                reused_cost += weight * reuse[i]
            else:
                reports.append(next(remaining_reports))
        return TuningResult(
            configuration=tuning.configuration,
            total_cost=tuning.total_cost + reused_cost,
            reports=reports,
            optimizer_calls=tuning.optimizer_calls,
            candidates_considered=tuning.candidates_considered,
        )
