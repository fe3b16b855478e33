"""Trace exporters: human-readable tree, JSON, and aggregate summaries.

All output is deterministically ordered — children and events by
sequence number, attributes and metric counters by name — so traces of
two identical runs differ only in wall times (suppress those with
``include_times=False`` to get byte-identical output for tests).
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

from .trace import Event, NullTracer, Span, Tracer

__all__ = ["render_tree", "to_json", "trace_to_dicts", "summarize",
           "iter_spans", "find_spans", "sum_attribute"]


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _format_attributes(attributes: dict[str, Any]) -> str:
    return " ".join(f"{key}={_format_value(attributes[key])}"
                    for key in sorted(attributes))


# ----------------------------------------------------------------------
# Traversal helpers
# ----------------------------------------------------------------------


def iter_spans(root: Tracer | NullTracer | Span | Iterable[Span]
               ) -> Iterator[Span]:
    """All spans under ``root``, depth-first in creation order."""
    if isinstance(root, Span):
        spans: Iterable[Span] = [root]
    elif isinstance(root, (Tracer, NullTracer)):
        spans = root.spans
    else:
        spans = root
    for span in spans:
        yield span
        yield from iter_spans(span.children)


def find_spans(root, name: str) -> list[Span]:
    """All spans named ``name``, depth-first in creation order."""
    return [span for span in iter_spans(root) if span.name == name]


def sum_attribute(spans: Iterable[Span], key: str) -> float:
    """Sum one numeric attribute over spans that carry it."""
    return sum(span.attributes.get(key, 0) for span in spans)


# ----------------------------------------------------------------------
# Human-readable tree
# ----------------------------------------------------------------------


def _render_span(span: Span, indent: int, include_times: bool,
                 lines: list[str]) -> None:
    parts = ["  " * indent + "- " + span.name]
    if include_times:
        parts.append(f"[{span.wall_time * 1000:.1f}ms]")
    if span.attributes:
        parts.append(_format_attributes(span.attributes))
    lines.append(" ".join(parts))
    items: list[tuple[int, Span | Event]] = \
        [(child.seq, child) for child in span.children] + \
        [(event.seq, event) for event in span.events]
    for _, item in sorted(items, key=lambda pair: pair[0]):
        if isinstance(item, Span):
            _render_span(item, indent + 1, include_times, lines)
        else:
            line = "  " * (indent + 1) + "* " + item.name
            if item.attributes:
                line += " " + _format_attributes(item.attributes)
            lines.append(line)


def render_tree(tracer: Tracer | NullTracer,
                include_times: bool = True) -> str:
    """The whole trace as an indented tree, one span/event per line."""
    if not getattr(tracer, "spans", None) and \
            not getattr(tracer, "events", None):
        return "(no spans recorded)"
    lines: list[str] = []
    for span in tracer.spans:
        _render_span(span, 0, include_times, lines)
    for event in tracer.events:
        line = "* " + event.name
        if event.attributes:
            line += " " + _format_attributes(event.attributes)
        lines.append(line)
    metrics = tracer.metric_snapshot()
    for component, counters in metrics.items():
        if counters:
            lines.append(f"metrics[{component}]: "
                         + _format_attributes(counters))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------


def _span_to_dict(span: Span, include_times: bool) -> dict:
    out: dict[str, Any] = {"name": span.name, "seq": span.seq}
    if include_times:
        out["wall_time"] = span.wall_time
    out["attributes"] = {key: span.attributes[key]
                         for key in sorted(span.attributes)}
    out["events"] = [{"name": event.name, "seq": event.seq,
                      "attributes": {key: event.attributes[key]
                                     for key in sorted(event.attributes)}}
                     for event in span.events]
    out["children"] = [_span_to_dict(child, include_times)
                       for child in span.children]
    return out


def trace_to_dicts(tracer: Tracer | NullTracer,
                   include_times: bool = True) -> dict:
    """The trace as plain dicts/lists (the JSON document's shape)."""
    return {
        "spans": [_span_to_dict(span, include_times)
                  for span in tracer.spans],
        "events": [{"name": event.name, "seq": event.seq,
                    "attributes": {key: event.attributes[key]
                                   for key in sorted(event.attributes)}}
                   for event in getattr(tracer, "events", ())],
        "metrics": tracer.metric_snapshot(),
    }


def to_json(tracer: Tracer | NullTracer) -> str:
    """The trace as a machine-readable JSON document."""
    def _default(value):
        if isinstance(value, frozenset):
            return sorted(value)
        return str(value)
    return json.dumps(trace_to_dicts(tracer), indent=2, default=_default)


# ----------------------------------------------------------------------
# Aggregate summary (the benchmark attachment)
# ----------------------------------------------------------------------


def summarize(tracer: Tracer | NullTracer) -> str:
    """Per-span-name aggregation: count, total time, summed counters.

    This is the "per-phase breakdown" the benchmarks attach to their
    output: it turns one wall-time number into how often each phase ran
    and where the time and optimizer calls went.
    """
    by_name: dict[str, dict[str, Any]] = {}
    order: list[str] = []
    for span in iter_spans(tracer):
        bucket = by_name.get(span.name)
        if bucket is None:
            bucket = by_name[span.name] = {"count": 0, "time": 0.0,
                                           "totals": {}}
            order.append(span.name)
        bucket["count"] += 1
        bucket["time"] += span.wall_time
        for key, value in span.attributes.items():
            if isinstance(value, (int, float)) and \
                    not isinstance(value, bool):
                totals = bucket["totals"]
                totals[key] = totals.get(key, 0) + value
    if not by_name:
        return "(no spans recorded)"
    name_width = max(len(name) for name in order)
    lines = [f"{'span'.ljust(name_width)}  count    time  totals"]
    for name in order:
        bucket = by_name[name]
        totals = " ".join(f"{key}={_format_value(bucket['totals'][key])}"
                          for key in sorted(bucket["totals"]))
        lines.append(f"{name.ljust(name_width)}  {bucket['count']:5d}  "
                     f"{bucket['time']:5.2f}s  {totals}")
    for component, counters in tracer.metric_snapshot().items():
        if counters:
            lines.append(f"metrics[{component}]: "
                         + _format_attributes(counters))
    return "\n".join(lines)
