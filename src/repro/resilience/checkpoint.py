"""Checkpoint/resume for long-running design searches.

A greedy search over a large problem runs for hours (the paper's own
pitch for Greedy is that joint search is *long-running*); a crash at
round 19 of 25 must not restart from zero. The searches snapshot their
full loop state through a :class:`CheckpointStore`:

* **atomic writes** — pickle to a temp file, then ``os.replace``; a
  crash mid-write leaves the previous checkpoint intact;
* **self-describing** — each snapshot carries the algorithm name and a
  problem key (problem digest + base-mapping digest + search settings);
  resuming against a different problem raises
  :class:`~repro.errors.CheckpointError` instead of silently producing
  a wrong design;
* **corruption-safe** — a torn or unreadable checkpoint loads as
  "no checkpoint" (counted on the ``checkpoint`` metrics) and the
  search starts fresh rather than crashing or resuming wrong state;
* **complete** — a snapshot includes the evaluator's own snapshot (its
  in-memory memo), so every cache-hit/derivation decision after resume
  matches the uninterrupted run and the final :class:`DesignResult` is
  identical.

:func:`save_search_state` / :func:`load_search_state` are the one codec
every checkpointing search goes through: they assemble and validate the
envelope (algorithm, problem key, counters, ``evaluator.snapshot()``)
around the search's own loop state, and own the "is there a store, is
it this round's turn, are we resuming" decisions.

Fault site ``checkpoint.write`` lets tests prove that a failed or torn
checkpoint write (disk full, crash) degrades to "skip this checkpoint"
and never corrupts the search itself.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from pathlib import Path

from ..errors import CheckpointError
from ..obs import NullTracer, Tracer, get_tracer
from .faults import active_fault_plan
from .policy import note_suppressed

__all__ = ["CheckpointStore", "load_search_state", "save_search_state"]

#: Bump when the snapshot layout changes; old checkpoints then fail the
#: format check and are treated as absent instead of mis-unpickled.
#: 8: a Greedy run whose M0 is infeasible pools its splits.
#: 9: configurations hold view tables; Greedy keeps its net design.
#: 10: the evaluator's snapshot is its memo alone.
CHECKPOINT_VERSION = 10

_FILENAME = "search.ckpt"


class CheckpointStore:
    """Atomic, validated persistence of one search's loop state."""

    def __init__(self, root: str | Path,
                 tracer: Tracer | NullTracer | None = None):
        self.root = Path(root)
        self.tracer = tracer if tracer is not None else get_tracer()
        self._metrics = self.tracer.metrics("checkpoint")

    @property
    def path(self) -> Path:
        return self.root / _FILENAME

    # ------------------------------------------------------------------
    def save(self, state: dict) -> bool:
        """Persist a snapshot; ``False`` when the write was skipped.

        A failed write (OS error, injected fault) is a degradation, not
        an error: the search keeps its previous checkpoint and moves
        on. A ``torn`` fault deliberately persists a truncated payload
        to prove half-written checkpoints are survivable.
        """
        fault = active_fault_plan().fire("checkpoint.write")
        if fault is not None and fault.kind != "torn":
            self._metrics.incr("write_faults")
            self.tracer.event("checkpoint_write_fault", kind=fault.kind)
            return False
        payload = pickle.dumps({"version": CHECKPOINT_VERSION, **state})
        if fault is not None:  # torn write
            payload = payload[:max(len(payload) // 2, 1)]
            self._metrics.incr("torn_writes")
        tmp = self.path.with_name(f"{_FILENAME}.{os.getpid()}.tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(payload)
            os.replace(tmp, self.path)
        except OSError:
            tmp.unlink(missing_ok=True)
            self._metrics.incr("write_failures")
            return False
        self._metrics.incr("writes")
        return True

    def load(self) -> dict | None:
        """The last snapshot, or ``None`` (absent/corrupt/old-format)."""
        try:
            payload = self.path.read_bytes()
        except OSError:
            return None
        try:
            state = pickle.loads(payload)
        except (AttributeError, ImportError) as exc:
            # It names a class this code no longer has: an older layout.
            note_suppressed(exc, "checkpoint.load", self.tracer)
            state = None
        except Exception as exc:
            # Torn/corrupt checkpoint: recoverable — start fresh.
            note_suppressed(exc, "checkpoint.load", self.tracer)
            self._metrics.incr("corrupt")
            self.tracer.event("checkpoint_corrupt", path=str(self.path))
            return None
        if not isinstance(state, dict) or \
                state.get("version") != CHECKPOINT_VERSION:
            self._metrics.incr("version_mismatches")
            return None
        return state

    def clear(self) -> bool:
        """Drop the snapshot; ``True`` when one existed."""
        existed = self.path.exists()
        self.path.unlink(missing_ok=True)
        return existed


def save_search_state(search, evaluator, **loop_state) -> None:
    """Snapshot ``search`` at a round boundary, if it checkpoints and
    ``loop_state["rounds"]`` falls on its ``checkpoint_every`` cadence.

    ``search`` is a checkpointing ``repro.search.Search`` (Greedy,
    Naive-Greedy): its ``algorithm``, ``problem_key()``,
    ``counters`` and ``evaluator.snapshot()`` form the envelope around
    the loop state. Everything goes into one pickle, so references
    shared between the loop state and the evaluator's stores (e.g.
    greedy's ``rejected_here`` members aliasing ``pool`` members, which
    the round loop compares by identity) survive the round-trip.
    """
    store, rounds = search.checkpoint, loop_state["rounds"]
    if store is None or rounds % search.checkpoint_every:
        return
    state = {"algorithm": search.algorithm,
             "problem_key": search.problem_key(),
             "counters": dataclasses.asdict(search.counters),
             "evaluator": evaluator.snapshot(), **loop_state}
    if store.save(state):
        search.counters.checkpoints_written += 1
        search.tracer.event("checkpoint_saved", rounds=rounds)


def load_search_state(search, evaluator) -> dict | None:
    """The saved loop state of a resuming ``search``, with its counters
    and ``evaluator`` put back where the snapshot left them; ``None``
    when there is nothing to resume. A snapshot of another algorithm or
    another problem raises :class:`~repro.errors.CheckpointError`.
    """
    store = search.checkpoint
    state = store.load() if store is not None and search.resume else None
    if state is None:
        return None
    if state.get("algorithm") != search.algorithm:
        raise CheckpointError(
            f"checkpoint at {store.path} belongs to a "
            f"{state.get('algorithm')!r} search, not {search.algorithm}")
    if state.get("problem_key") != search.problem_key():
        raise CheckpointError(
            f"checkpoint at {store.path} was written for a "
            "different problem (workload, statistics, bound, base "
            "mapping, or search settings changed)")
    for name, value in state["counters"].items():
        if hasattr(search.counters, name):
            setattr(search.counters, name, value)
    evaluator.restore(state["evaluator"])
    search.tracer.event("checkpoint_resumed", rounds=state["rounds"])
    search.tracer.metrics("checkpoint").incr("resumes")
    return state
