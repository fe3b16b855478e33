"""LRU cache of translated query plans for the query service.

XPath→SQL translation is pure — its output depends only on the mapped
schema and the query text — so a long-lived service should pay it once
per distinct query, not once per request. Entries are keyed the same
way the advisor's what-if cache and the persistent evaluation cache
digest their problems: a SHA-1 over a canonical serialization of every
input that can change the output. Here that is

* the **mapping digest** (:func:`repro.search.mapping_digest`) of the
  schema the translator runs against, and
* the **canonical query text** — ``str(parse_xpath(text))``, so
  spelling variants of the same query share one entry.

The cache is thread-safe (the service's pool workers hit it
concurrently) and strictly LRU: ``capacity`` bounds the entry count and
the least-recently-*used* entry is evicted. ``hits``, ``misses`` and
``evictions`` are kept once, as the cache's own integers updated under
the lock the probe already holds; :meth:`PlanCache.get_or_translate`
is the only probe and reports whether it hit, so a caller's "was this
plan cached?" and those counters are one decision.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..mapping import MappedSchema
from ..obs import NullTracer, Tracer, get_tracer
from ..resilience import active_fault_plan
from ..search import mapping_digest
from ..sqlast import Query
from ..translate import Translator
from ..xpath import XPathQuery, parse_xpath

__all__ = ["CachedPlan", "PlanCache"]


@dataclass(frozen=True)
class CachedPlan:
    """One translated plan: the key, the canonical query text it
    digests, and the SQL AST."""

    key: str
    xpath: str
    sql: Query


class PlanCache:
    """Thread-safe LRU of :class:`CachedPlan` entries for one schema."""

    def __init__(self, schema: MappedSchema, capacity: int = 128,
                 tracer: Tracer | NullTracer | None = None):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.schema = schema
        self.capacity = capacity
        self.tracer = tracer if tracer is not None else get_tracer()
        self._translator = Translator(schema)
        self._schema_digest = mapping_digest(schema.mapping)
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def key_for(self, query: XPathQuery | str) -> str:
        """Digest of (mapping digest, canonical query text); ``query``
        is a parsed query or its canonical text."""
        canonical = f"{self._schema_digest}|{query}"
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:16]

    def get_or_translate(self, query: XPathQuery | str
                         ) -> tuple[CachedPlan, bool]:
        """``(plan, hit)`` for ``query``, translating on a miss.

        ``hit`` is the same decision that bumps ``hits`` or ``misses``,
        taken under one acquisition of the lock. Translation runs
        outside the lock — it is pure and can safely race; the first
        finisher wins the slot and a duplicate translation is dropped
        (a miss either way).
        """
        if isinstance(query, str):
            query = parse_xpath(query)
        text = str(query)
        key = self.key_for(text)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry, True
            self.misses += 1
        with self.tracer.span("serve.translate", key=key):
            active_fault_plan().maybe_raise("serve.translate")
            sql = self._translator.translate(query)
        entry = CachedPlan(key=key, xpath=text, sql=sql)
        with self._lock:
            racer = self._entries.get(key)
            if racer is not None:
                self._entries.move_to_end(key)
                return racer, False
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry, False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }
