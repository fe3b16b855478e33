"""Parallel fan-out for candidate costing.

Costing the candidates of one greedy round (or one naive enumeration
pass) is embarrassingly parallel: every evaluation reads the immutable
schema tree, the workload, and the collected statistics, and builds its
own private stats-only database. This module runs those evaluations on
a ``concurrent.futures`` process pool: workers are initialized once
with a pickled ``(workload, collected stats, storage bound)`` context
and receive one picklable work unit per candidate (the mapping plus the
reused costs and carried object sets, both empty for an exact
evaluation). Where process pools are unavailable, or once the pool
breaks, the same work units run **inline** in the calling process, one
after the other — the ladder is process → inline, and the inline tier
has no per-evaluation deadline.

Determinism is preserved by construction: tasks are submitted and their
outputs absorbed in submission order, each worker computes the same
pure function the serial path computes, and the serial and parallel
code paths share every decision *around* the evaluations (caching,
dedup, scoring). Worker-side observability is not lost — each task
returns its counter deltas, metric deltas, and span tree, which the
caller grafts into the main process's tracer in submission order.

Controls: ``--jobs N`` on the CLI / the ``jobs=`` search argument, or
the ``REPRO_PARALLEL`` environment variable (``0``/unset = serial,
``1``/``auto`` = one worker per CPU, ``N`` = exactly N workers). See
docs/performance.md.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields

from ..errors import InjectedFault
from ..obs import NULL_TRACER, NullTracer, Tracer, get_tracer
from ..resilience import RetryPolicy, active_fault_plan, install_fault_plan
from .result import SearchCounters

__all__ = ["EvaluationPool", "EvaluationTask", "WorkerOutput",
           "resolve_jobs", "graft_spans"]

#: Counters only the main process advances: deadlines, pool tiers, and
#: checkpoints are all decided on the absorbing side.
_MAIN_PROCESS_ONLY = frozenset({"timeouts", "pool_degradations",
                                "checkpoints_written"})

#: SearchCounters fields a worker evaluation can advance: every integer
#: counter that is not main-process-only. ``wall_time`` (the one float)
#: is excluded: ``Search.run`` measures real elapsed time in
#: the main process, and summing worker times would double-count.
_COUNTER_FIELDS = tuple(
    counter.name for counter in fields(SearchCounters)
    if isinstance(counter.default, int)
    and counter.name not in _MAIN_PROCESS_ONLY)

#: Exceptions that mean "the pool infrastructure broke", as opposed to
#: the evaluation itself failing. ``FuturesTimeout`` is handled apart —
#: on 3.12+ it aliases the builtin ``TimeoutError`` (an ``OSError``
#: subclass), so it must be caught before this tuple.
_INFRA_ERRORS = (BrokenProcessPool, OSError, pickle.PicklingError,
                 RuntimeError, InjectedFault)


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count from an explicit argument or ``REPRO_PARALLEL``.

    ``None`` defers to the environment: unset/``0``/``off`` mean serial;
    ``1``/``auto``/``on`` mean one worker per CPU (minimum 2, so the
    parallel machinery is exercised even on single-CPU runners); any
    other integer is the exact worker count. An explicit non-positive
    argument is an error (``--jobs 0`` used to be silently clamped to
    serial, masking the typo).
    """
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(
                f"jobs must be >= 1 (got {jobs}); use jobs=1 for a serial "
                "run, or leave it unset to follow REPRO_PARALLEL")
        return jobs
    raw = os.environ.get("REPRO_PARALLEL", "").strip().lower()
    if raw in ("", "0", "off", "false", "no"):
        return 1
    if raw in ("1", "auto", "on", "true", "yes"):
        return max(2, os.cpu_count() or 1)
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------

#: ``(mapping, reuse, carried)``: ``reuse`` maps workload indices to
#: reused costs and ``carried`` maps the same indices to the object sets
#: those costs were derived with (both empty for exact evaluations).
EvaluationTask = tuple


@dataclass
class WorkerOutput:
    """Everything one evaluation produced, in picklable form.

    ``fault`` marks a result dropped by the resilience policy (retries
    exhausted, deadline fired) — such a ``None`` is *not* a fact about
    the mapping and must never be cached by the absorbing side.
    """

    result: object  # EvaluatedMapping | None
    counters: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    fault: str | None = None


def _counters_snapshot(counters: SearchCounters) -> dict[str, int]:
    return {name: getattr(counters, name) for name in _COUNTER_FIELDS}


def run_task(evaluator, task: EvaluationTask, tracing: bool) -> WorkerOutput:
    """Execute one work unit on an evaluator and package the output.

    Shared by the process workers and the inline tier; the caller
    guarantees the evaluator is not used concurrently. The retry
    policy runs *inside* the task (``evaluate_uncached``), so its
    counter deltas ride back with the rest.
    """
    from ..obs import trace_to_dicts

    tracer = Tracer() if tracing else NULL_TRACER
    evaluator.rebind_tracer(tracer)
    before = _counters_snapshot(evaluator.counters)
    result, fault = evaluator.evaluate_uncached(*task)
    after = _counters_snapshot(evaluator.counters)
    deltas = {name: after[name] - before[name]
              for name in _COUNTER_FIELDS if after[name] != before[name]}
    if not tracing:
        return WorkerOutput(result=result, counters=deltas, fault=fault)
    exported = trace_to_dicts(tracer)
    return WorkerOutput(result=result, counters=deltas,
                        metrics=tracer.metric_snapshot(),
                        spans=exported["spans"], fault=fault)


# ----------------------------------------------------------------------
# Process-pool worker side
# ----------------------------------------------------------------------

_WORKER_EVALUATOR = None
_WORKER_TRACING = False


def _task_evaluator(workload, collected, storage_bound, policy):
    """An evaluator that only runs work units: no cache layer (the
    absorbing side owns those) and no pool of its own."""
    from .evaluator import MappingEvaluator

    return MappingEvaluator(workload, collected, storage_bound,
                            use_cache=False, jobs=1, tracer=NULL_TRACER,
                            policy=policy)


def _init_worker(payload: bytes) -> None:
    """Build this worker's evaluator once from the pickled context.

    The active fault plan travels as its spec string and is rebuilt
    with fresh per-site counters, so fault injection reaches pool
    workers too; the retry policy rides along so worker-side retries
    follow the same bounds as serial ones.
    """
    global _WORKER_EVALUATOR, _WORKER_TRACING

    (workload, collected, storage_bound, tracing,
     policy, fault_spec) = pickle.loads(payload)
    install_fault_plan(fault_spec)
    _WORKER_EVALUATOR = _task_evaluator(workload, collected, storage_bound,
                                        policy)
    _WORKER_TRACING = tracing


def _pool_task(task: EvaluationTask) -> WorkerOutput:
    assert _WORKER_EVALUATOR is not None, "worker initializer did not run"
    return run_task(_WORKER_EVALUATOR, task, _WORKER_TRACING)


# ----------------------------------------------------------------------
# Main-process side
# ----------------------------------------------------------------------


class EvaluationPool:
    """A lazily created executor bound to one evaluation problem.

    Degradation ladder: ``process`` → ``inline``. Any
    broken-infrastructure signal (a killed worker, a pickling failure,
    an injected ``pool.submit`` fault, a fired deadline) drops the
    process pool for good and the rest of the work runs inline, in the
    calling process; the batch always finishes, and because every task
    is a pure function of pickled inputs, the results are identical on
    both tiers. The inline tier has no per-evaluation deadline.
    """

    def __init__(self, workload, collected, storage_bound,
                 jobs: int, tracing: bool,
                 policy: RetryPolicy | None = None,
                 counters: SearchCounters | None = None,
                 tracer: Tracer | NullTracer | None = None):
        self.workload = workload
        self.collected = collected
        self.storage_bound = storage_bound
        self.jobs = jobs
        self.tracing = tracing
        self.backend = "process"
        self.policy = policy if policy is not None else RetryPolicy()
        self.counters = counters if counters is not None else SearchCounters()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._executor: ProcessPoolExecutor | None = None
        self._inline_evaluator = None

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> None:
        if self._executor is not None:
            return
        plan = active_fault_plan()
        payload = pickle.dumps(
            (self.workload, self.collected, self.storage_bound,
             self.tracing, self.policy,
             plan.to_spec() if plan.enabled else None))
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker, initargs=(payload,))
        except (OSError, ValueError, pickle.PicklingError):
            self.backend = "inline"  # e.g. no /dev/shm semaphores

    def _inline_task(self, task: EvaluationTask) -> WorkerOutput:
        # One evaluator for every inline task, built on first need —
        # the in-process equivalent of a single pool worker.
        if self._inline_evaluator is None:
            self._inline_evaluator = _task_evaluator(
                self.workload, self.collected, self.storage_bound,
                self.policy)
        return run_task(self._inline_evaluator, task, self.tracing)

    # ------------------------------------------------------------------
    def run(self, tasks: list[EvaluationTask]) -> list[WorkerOutput]:
        """Evaluate all tasks; outputs are in submission order.

        Broken infrastructure (a worker killed by the OS, a pickling
        failure, an injected submission fault) degrades to the inline
        tier and finishes the batch in-process — the batch always
        completes. A per-evaluation deadline (``policy.timeout``)
        abandons a hung evaluation: that candidate comes back as
        infeasible-by-fault (``fault="timeout"``, never cached, never
        re-run in the main process — it might hang it too) and the
        pool degrades away from the process tier that hung.
        Evaluation-level exceptions (e.g.
        :class:`~repro.errors.CheckError`) propagate: they signal bugs,
        not infrastructure failures.
        """
        futures: list[Future] = []
        if self.backend == "process":
            try:
                active_fault_plan().maybe_raise("pool.submit")
                self._ensure_executor()
                if self._executor is not None:
                    futures = [self._executor.submit(_pool_task, task)
                               for task in tasks]
            except _INFRA_ERRORS:
                self._degrade("submit")
        outputs: list[WorkerOutput] = []
        for index, task in enumerate(tasks):
            if self.backend == "inline":
                outputs.append(self._inline_task(task))
                continue
            try:
                outputs.append(
                    futures[index].result(timeout=self.policy.timeout))
            except FuturesTimeout:
                # Abandon the hung evaluation; the candidate degrades
                # to infeasible-by-fault and the search continues.
                self.counters.timeouts += 1
                self.counters.faulted_evaluations += 1
                self.tracer.metrics("pool").incr("timeouts")
                self.tracer.event("evaluation_timeout", index=index)
                self._degrade("timeout")
                outputs.append(WorkerOutput(result=None, fault="timeout"))
            except _INFRA_ERRORS:
                self._degrade("worker")
                outputs.append(self._inline_task(task))
        return outputs

    def _degrade(self, reason: str) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            # wait=False: a hung worker must not hang the shutdown too.
            executor.shutdown(wait=False, cancel_futures=True)
        self.backend = "inline"
        self.counters.pool_degradations += 1
        self.tracer.metrics("pool").incr(f"degradations.{reason}")
        self.tracer.event("pool_degraded", reason=reason,
                          backend="process", fallback="inline")

    def close(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# Trace grafting
# ----------------------------------------------------------------------


def graft_spans(tracer: Tracer | NullTracer, span_dicts: list[dict]) -> None:
    """Attach worker span trees under the tracer's current span.

    Replayed spans keep their recorded attributes, events, and wall
    times (worker compute time — their sum can exceed the batch's real
    elapsed time, exactly as in any parallel trace), and receive fresh
    sequence numbers in submission order so exporters stay
    deterministic.
    """
    if not tracer.enabled:
        return
    for span_dict in span_dicts:
        with tracer.span(span_dict["name"]) as span:
            for key, value in span_dict.get("attributes", {}).items():
                span.set(key, value)
            for event in span_dict.get("events", []):
                span.event(event["name"], **event.get("attributes", {}))
            graft_spans(tracer, span_dict.get("children", []))
        span.wall_time = span_dict.get("wall_time", 0.0)


def merge_metrics(tracer: Tracer | NullTracer,
                  metrics: dict[str, dict[str, float]]) -> None:
    """Fold worker metric deltas into the main tracer's registries."""
    if not tracer.enabled:
        return
    for component in sorted(metrics):
        registry = tracer.metrics(component)
        counters = metrics[component]
        for name in sorted(counters):
            registry.incr(name, counters[name])
