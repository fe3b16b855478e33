"""Spans recorded from outside the program.

The traced pass wraps calls into each layer's public functions from
the harness's own files; nothing under ``src/`` knows it is being
measured. Spans stay in memory and are written out once, at exit.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """In-memory span list: (name, start, end, parent id, request id)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int | None]] \
            = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request: int | None = None) -> int:
        self.spans.append((name, start, end, parent, request))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the block; yields a dict that receives ``seconds``."""
        out: dict = {}
        start = time.perf_counter()
        try:
            yield out
        finally:
            end = time.perf_counter()
            out["seconds"] = end - start
            out["id"] = self.add(name, start, end, parent)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total time and self time (the span
        minus the part of it its child spans cover)."""
        covered: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for ident, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[ident]
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header, totals=self.totals(), spans=[
            {"id": i, "name": name, "start": start, "end": end,
             "parent": parent, "request": request}
            for i, (name, start, end, parent, request)
            in enumerate(self.spans)])
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class ServeTrace:
    """Instance-level shims on one service's two public boundaries.

    Valid with one request in flight (the closed c=1 arm): the worker
    leaves its four clock reads in ``_marks`` and the caller, once the
    answer is in hand, turns them into the spans of one request::

        bench.request > serve.admit_queue | serve.plan
                      | backends.execute  | serve.return
    """

    def __init__(self, service, recorder: Recorder):
        self.service = service
        self.recorder = recorder
        self.requests = 0
        self.rows = 0
        self._marks = [0.0, 0.0, 0.0, 0.0]

    def __enter__(self):
        plan = self.service.plan_cache.get_or_translate
        execute = self.service.backend.execute
        marks = self._marks
        clock = time.perf_counter

        def traced_plan(query):
            marks[0] = clock()
            try:
                return plan(query)
            finally:
                marks[1] = clock()

        def traced_execute(sql):
            marks[2] = clock()
            try:
                rows = execute(sql)
                self.rows += len(rows)
                return rows
            finally:
                marks[3] = clock()

        self.service.plan_cache.get_or_translate = traced_plan
        self.service.backend.execute = traced_execute
        return self

    def __exit__(self, *exc) -> bool:
        del self.service.plan_cache.get_or_translate
        del self.service.backend.execute
        return False

    def on_request(self, submitted: float, in_hand: float) -> None:
        plan0, plan1, exec0, exec1 = self._marks
        add = self.recorder.add
        self.requests += 1
        ident = add("bench.request", submitted, in_hand,
                    request=self.requests)
        add("serve.admit_queue", submitted, plan0, ident, self.requests)
        add("serve.plan", plan0, plan1, ident, self.requests)
        add("backends.execute", exec0, exec1, ident, self.requests)
        add("serve.return", exec1, in_hand, ident, self.requests)
