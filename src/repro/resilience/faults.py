"""Deterministic fault injection for the search/advisor stack.

A :class:`FaultPlan` is a seeded set of :class:`FaultRule`\\ s, each
bound to a **named site** in the code. Instrumented call sites ask the
globally installed plan whether to misbehave *this* invocation; the
answer is a pure function of ``(seed, site, per-site invocation
count)``, so a given plan produces the same fault sequence on every
serial run — failure paths become exercisable in tests and CI instead
of only in production.

Sites (see docs/resilience.md for the full table):

=================== ====================================================
``evaluate``        one candidate-mapping evaluation (worker or serial)
``advisor``         entry of :meth:`IndexTuningAdvisor.tune`
``whatif``          one what-if optimizer call (:meth:`Database.estimate`)
``pool.submit``     submission of a batch to the evaluation pool
``checkpoint.write`` a search-checkpoint write (supports ``torn`` writes)
``serve.request``   one query-service request attempt (worker thread)
``serve.translate`` one plan-cache XPath→SQL translation
``backend.execute`` one backend query execution (the serve path)
``backend.connect`` opening a backend connection (incl. per-thread)
``backend.load.batch`` one bulk-load batch insert
=================== ====================================================

A rule for any other site is refused with a :class:`ValueError` naming
the known ones: a misspelt site would otherwise never fire.

Fault kinds:

* ``transient`` — raises a retryable :class:`~repro.errors.InjectedFault`;
* ``fatal``     — raises a non-retryable one (propagates; kills the run);
* ``hang``      — sleeps ``duration`` seconds (a slow/stuck worker);
* ``torn``      — for write sites: the payload is truncated half-way,
  simulating a torn write that survived a rename.

Plans are configured from the ``REPRO_FAULTS`` environment variable or
the ``--faults`` CLI flag with a spec like::

    seed=42;evaluate:0.2:transient;whatif:0.1

(tokens separated by ``;`` or ``,``; each site token is
``site:rate[:kind[:duration[:after]]]`` — ``after`` arms the rule only
from invocation ``after + 1`` of the site on, so ``evaluate:1:fatal:0:40``
deterministically kills the 41st evaluation). The plan travels to
process-pool workers as its spec string; each worker rebuilds it with
fresh per-site counters.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..errors import (CheckError, EvaluationTimeout, InjectedFault,
                      MappingError, ReproError, TranslationError)

__all__ = ["FaultRule", "FaultPlan", "NULL_PLAN", "active_fault_plan",
           "install_fault_plan", "classify", "RETRYABLE_CATEGORIES"]

_SITES = ("evaluate", "advisor", "whatif", "pool.submit", "checkpoint.write",
          "serve.request", "serve.translate", "backend.execute",
          "backend.connect", "backend.load.batch")
_KINDS = ("transient", "fatal", "hang", "torn")


@dataclass(frozen=True)
class FaultRule:
    """One site's misbehavior: fire with ``rate`` probability.

    ``after`` arms the rule only from invocation ``after + 1`` on —
    with ``rate=1.0`` this fires at exactly one deterministic point,
    which is how tests kill a search mid-flight.
    """

    site: str
    rate: float
    kind: str = "transient"
    duration: float = 0.25  # seconds, for ``hang``
    after: int = 0          # skip the site's first ``after`` invocations

    def __post_init__(self):
        if self.site not in _SITES:
            raise ValueError(f"unknown fault site {self.site!r} "
                             f"(expected one of {_SITES})")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {_KINDS})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], "
                             f"got {self.rate!r}")

    def to_token(self) -> str:
        return (f"{self.site}:{self.rate}:{self.kind}:{self.duration}"
                f":{self.after}")


class FaultPlan:
    """A seeded, deterministic schedule of faults at named sites.

    Whether invocation *n* of a site faults is decided by hashing
    ``(seed, site, n)`` — no shared RNG stream, so adding a rule for one
    site never shifts another site's fault sequence, and a plan rebuilt
    from its spec (e.g. inside a pool worker) replays identically.
    """

    def __init__(self, rules: list[FaultRule] | None = None, seed: int = 0):
        self.seed = seed
        self.rules: dict[str, FaultRule] = {r.site: r for r in (rules or [])}
        self._counts: dict[str, int] = {}
        # Serve-pool threads hit maybe_raise concurrently; an unlocked
        # read-modify-write of the per-site counter would let two
        # threads claim the same invocation number (double-firing one
        # scheduled fault and skipping another).
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self.rules)

    def to_spec(self) -> str:
        tokens = [f"seed={self.seed}"]
        tokens += [self.rules[site].to_token()
                   for site in sorted(self.rules)]
        return ";".join(tokens)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``seed=N;site:rate[:kind[:duration]];...``."""
        seed = 0
        rules: list[FaultRule] = []
        for raw in spec.replace(",", ";").split(";"):
            token = raw.strip()
            if not token:
                continue
            if token.startswith("seed="):
                seed = int(token[len("seed="):])
                continue
            parts = token.split(":")
            if len(parts) < 2:
                raise ValueError(
                    f"bad fault token {token!r} (expected "
                    f"site:rate[:kind[:duration]])")
            site, rate = parts[0], float(parts[1])
            kind = parts[2] if len(parts) > 2 else "transient"
            duration = float(parts[3]) if len(parts) > 3 else 0.25
            after = int(parts[4]) if len(parts) > 4 else 0
            rules.append(FaultRule(site, rate, kind, duration, after))
        return cls(rules, seed=seed)

    # ------------------------------------------------------------------
    def fire(self, site: str) -> FaultRule | None:
        """The rule to apply for this invocation of ``site``, if any."""
        if not self.rules:
            return None
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._count_lock:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
        if count <= rule.after:
            return None
        if rule.rate >= 1.0:
            return rule
        digest = hashlib.sha1(
            f"{self.seed}|{site}|{count}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2 ** 64
        return rule if draw < rule.rate else None

    def maybe_raise(self, site: str) -> None:
        """Raise/sleep per the site's rule; no-op when it doesn't fire."""
        rule = self.fire(site)
        if rule is None:
            return
        if rule.kind == "hang":
            time.sleep(rule.duration)
            return
        raise InjectedFault(site, retryable=(rule.kind != "fatal"))

    def reset(self) -> None:
        """Forget invocation counts (a fresh deterministic replay)."""
        with self._count_lock:
            self._counts.clear()


#: The disabled plan: every query is a fast no-op.
NULL_PLAN = FaultPlan()

_ACTIVE: FaultPlan | None = None


def _from_env() -> FaultPlan:
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    return FaultPlan.from_spec(spec) if spec else NULL_PLAN


def install_fault_plan(plan: "FaultPlan | str | None") -> FaultPlan:
    """Install a plan (or a spec string); ``None`` reverts to the
    ``REPRO_FAULTS`` environment default."""
    global _ACTIVE
    if isinstance(plan, str):
        plan = FaultPlan.from_spec(plan)
    _ACTIVE = plan if plan is not None else _from_env()
    return _ACTIVE


def active_fault_plan() -> FaultPlan:
    """The installed plan; lazily resolved from ``REPRO_FAULTS``."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _from_env()
    return _ACTIVE


# ----------------------------------------------------------------------
# Fault classification
# ----------------------------------------------------------------------

#: Categories the retry policy is allowed to re-attempt.
RETRYABLE_CATEGORIES = frozenset({"transient", "infrastructure"})


def classify(exc: BaseException) -> str:
    """Bucket an exception for the retry/degradation policy.

    ``transient``       injected retryable fault — retry in place
    ``infrastructure``  broken pool / OS / pickling — retry or degrade
    ``timeout``         a deadline fired — degrade, never re-run in place
    ``inapplicable``    a transformation does not apply — benign skip
    ``infeasible``      the mapping cannot serve the workload
    ``fatal``           everything else — propagate
    """
    if isinstance(exc, InjectedFault):
        return "transient" if exc.retryable else "fatal"
    if isinstance(exc, ReproError) and getattr(exc, "retryable", False):
        # Library errors that declare themselves retryable — e.g. the
        # SQLite backend's SQLITE_BUSY/SQLITE_LOCKED wrapper — without
        # this module having to import every backend's exception types.
        return "transient"
    if isinstance(exc, EvaluationTimeout):
        return "timeout"
    if isinstance(exc, CheckError):
        return "fatal"
    if isinstance(exc, TranslationError):
        return "infeasible"
    if isinstance(exc, MappingError):
        return "inapplicable"
    if isinstance(exc, ReproError):
        return "fatal"
    if isinstance(exc, TimeoutError):  # before OSError: it subclasses it
        return "timeout"
    if isinstance(exc, (BrokenProcessPool, OSError, pickle.PicklingError)):
        return "infrastructure"
    return "fatal"
