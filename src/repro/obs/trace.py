"""Lightweight span tracer for the search/advisor hot paths.

A :class:`Tracer` collects a tree of timed :class:`Span` objects plus
point-in-time :class:`Event` records. Spans are context managers::

    tracer = Tracer()
    with tracer.span("tune", queries=4) as span:
        ...
        span.set("optimizer_calls", 17)
        span.incr("cache_hits")
        tracer.event("cache_hit", kind="exact")

Design constraints (see docs/observability.md):

* **Zero overhead when disabled.** The module-level :data:`NULL_TRACER`
  singleton implements the whole surface as no-ops that allocate
  nothing; instrumented code holds a tracer reference and never
  branches on "is tracing on?".
* **Deterministic ordering.** Every span and event carries a
  monotonically increasing sequence number; exporters order children
  and interleaved events by it and render attributes sorted by key, so
  two identical runs produce byte-identical trees (wall times aside).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from .metrics import NULL_METRICS, MetricRegistry, NullMetricRegistry

__all__ = ["Event", "Span", "Tracer", "NullTracer", "NULL_TRACER",
           "get_tracer", "set_tracer"]


@dataclass
class Event:
    """A point-in-time record attached to the span it occurred under."""

    name: str
    seq: int
    attributes: dict[str, Any] = field(default_factory=dict)


class Span:
    """One timed, attributed node of the trace tree."""

    __slots__ = ("name", "seq", "attributes", "children", "events",
                 "wall_time", "_tracer", "_start")

    def __init__(self, name: str, tracer: "Tracer",
                 attributes: dict[str, Any]):
        self.name = name
        self.seq = -1
        self.attributes: dict[str, Any] = dict(attributes)
        self.children: list[Span] = []
        self.events: list[Event] = []
        self.wall_time = 0.0
        self._tracer = tracer
        self._start = 0.0

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_time += time.perf_counter() - self._start
        self._tracer._pop(self)
        return False

    # -- attributes / events --------------------------------------------
    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def incr(self, key: str, delta: float = 1) -> None:
        self.attributes[key] = self.attributes.get(key, 0) + delta

    def event(self, name: str, **attributes: Any) -> None:
        self.events.append(Event(name, self._tracer._next_seq(), attributes))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.name!r} seq={self.seq} "
                f"children={len(self.children)}>")


class Tracer:
    """Collects a deterministic tree of timed spans and counters."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []      # completed/open top-level spans
        self.events: list[Event] = []    # events outside any span
        self._stack: list[Span] = []
        self._seq = 0
        self._registries: dict[str, MetricRegistry] = {}

    # -- span / event construction --------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        return Span(name, self, attributes)

    def event(self, name: str, **attributes: Any) -> None:
        event = Event(name, self._next_seq(), attributes)
        if self._stack:
            self._stack[-1].events.append(event)
        else:
            self.events.append(event)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- metric registries ----------------------------------------------
    def metrics(self, component: str) -> MetricRegistry:
        registry = self._registries.get(component)
        if registry is None:
            registry = self._registries[component] = MetricRegistry(component)
        return registry

    def own_metrics(self, component: str) -> MetricRegistry:
        """A registry no one else holds: ``component``, else
        ``component#2``, ``#3``… (counts that are one owner's state)."""
        name, n = component, 1
        while name in self._registries:
            n += 1
            name = f"{component}#{n}"
        return self.metrics(name)

    def metric_snapshot(self) -> dict[str, dict[str, float]]:
        """All registries, components and counters sorted by name."""
        return {name: self._registries[name].snapshot()
                for name in sorted(self._registries)}

    # -- internals -------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _push(self, span: Span) -> None:
        span.seq = self._next_seq()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exceptions unwinding through several open spans.
        while self._stack:
            if self._stack.pop() is span:
                break


class _NullSpan:
    """No-op span; a single shared instance, nothing is recorded."""

    __slots__ = ()
    name = ""
    seq = -1
    wall_time = 0.0
    attributes: dict[str, Any] = {}
    children: list = []
    events: list = []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def incr(self, key: str, delta: float = 1) -> None:
        pass

    def event(self, name: str, **attributes: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code paths keep a reference to this singleton by
    default, so tracing costs one attribute lookup and an empty call
    when off — no allocation, no branching at the call sites.
    """

    enabled = False
    spans: tuple = ()
    events: tuple = ()
    current = None

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def metrics(self, component: str) -> NullMetricRegistry:
        return NULL_METRICS

    def metric_snapshot(self) -> dict:
        return {}


NULL_TRACER = NullTracer()

# ----------------------------------------------------------------------
# Ambient tracer: lets a harness (the benchmark conftest, a notebook)
# turn tracing on for every search constructed while it is installed,
# without threading a tracer argument through existing call sites.
# ----------------------------------------------------------------------

_ACTIVE: Tracer | NullTracer = NULL_TRACER


def set_tracer(tracer: Tracer | None) -> Tracer | NullTracer:
    """Install (or, with ``None``, clear) the ambient tracer."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return _ACTIVE


def get_tracer() -> Tracer | NullTracer:
    """The ambient tracer; :data:`NULL_TRACER` unless one is installed."""
    return _ACTIVE
