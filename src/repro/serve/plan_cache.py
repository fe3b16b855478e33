"""LRU cache of translated query plans for the query service.

XPath→SQL translation is pure, and its output depends only on the
mapped schema and the query's *paths*: the one literal the XPath subset
allows (``[path op literal]``) is copied into the statement and decides
nothing. So the cache's unit is the query **shape** — the token
sequence of the request text with its literal lifted out
(:func:`repro.xpath.lex`) — and a long-lived service pays parsing and
translation once per shape, not once per request or per distinct value:

* a **hit** never parses, digests or renders anything. The lexer
  splits the literal off the text once and tokenises the rest once per
  process (it remembers it), which yields shape and value; the shape
  is the key; the cached SQL text, rendered once by the serving
  backend (``sql_text``: its dialect, over the join views it built)
  with a placeholder where the value goes, is paired with the value
  for the backend to bind. A text is a hit only
  if the lexer consumed all of it and its tokens equal a cached
  shape's, and what parses is decided by the tokens alone, so a hit is
  never a text the parser would refuse.
* a **miss** parses the shape into its *template* — the query with no
  value in it, so the translator cannot read one and a value-dependent
  plan is impossible by construction — translates that to a statement
  carrying ``sqlast.Parameter(1)``, and stores it.

``plan_key`` names the shape, digested the way the advisor's what-if
cache and a search checkpoint digest their problems: a SHA-1 over the **mapping digest** (:func:`repro.search.mapping_digest`)
of the schema the translator runs against and the **canonical template
text** (``str`` of the template: ``//movie[title = ?]/year``), so
spelling variants share one entry and requests differing only in the
literal report one key.

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
from typing import Callable, NamedTuple

from ..backends import Statement
from ..mapping import MappedSchema
from ..obs import NullTracer, Tracer, get_tracer
from ..resilience import active_fault_plan
from ..search import mapping_digest
from ..sqlast import Query, bind
from ..translate import Translator
from ..xpath import Shape, XPathQuery, lex, parse_tokens, quote_literal

__all__ = ["CachedPlan", "PlanCache"]


class _Entry(NamedTuple):
    """What the requests of one shape share."""

    key: str
    head: str           # canonical text up to the literal slot ...
    tail: str           # ... and after it ("": the shape has no slot)
    template: Query     # Parameter(1) wherever the literal goes
    text: str | None    # ``template`` as the serving backend runs it


class CachedPlan(NamedTuple):
    """One request's plan: its shape's cached entry and its own literal.

    ``xpath`` is the canonical text of *this* request; ``statement`` is
    what the serving backend's ``execute`` takes — the shared SQL text
    with ``values`` to bind, or, for a dialect that binds nothing, the
    literal query itself.
    """

    key: str
    xpath: str
    statement: Statement | Query
    template: Query
    values: tuple[str, ...]

    @property
    def sql(self) -> Query:
        """The literal statement: what the in-memory engine runs and
        what the bound text means."""
        return bind(self.template, self.values)


class PlanCache:
    """Thread-safe LRU of translated query shapes for one schema.

    ``render`` is the serving backend's ``sql_text`` when its dialect
    binds parameters; without it plans carry the literal query.
    """

    def __init__(self, schema: MappedSchema, capacity: int = 128,
                 tracer: Tracer | NullTracer | None = None,
                 render: Callable[[Query], str] | None = None):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.schema = schema
        self.capacity = capacity
        self.tracer = tracer if tracer is not None else get_tracer()
        self._translator = Translator(schema)
        self._schema_digest = mapping_digest(schema.mapping)
        self._render = render
        self._entries: OrderedDict[Shape, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def key_for(self, query: XPathQuery | str) -> str:
        """The ``plan_key`` of ``query``'s shape: a digest of (mapping
        digest, canonical template text)."""
        text = str(query)
        return self._digest(str(parse_tokens(lex(text)[0], text)))

    def _digest(self, template_text: str) -> str:
        canonical = f"{self._schema_digest}|{template_text}"
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:16]

    def get_or_translate(self, query: XPathQuery | str
                         ) -> tuple[CachedPlan, bool]:
        """``(plan, hit)`` for ``query``, translating on a miss.

        A parsed query takes the same path through its canonical text.
        ``hit`` is the same decision that bumps ``hits`` or ``misses``,
        taken under one acquisition of the lock. Translation runs
        outside the lock — it is pure and can safely race; the first
        finisher wins the slot and a duplicate translation is dropped
        (a miss either way).
        """
        text = query if isinstance(query, str) else str(query)
        shape, values = lex(text)
        with self._lock:
            entry = self._entries.get(shape)
            if entry is not None:
                self._entries.move_to_end(shape)
                self.hits += 1
            else:
                self.misses += 1
        hit = entry is not None
        if not hit:
            entry = self._translate(shape, text)
        key, head, tail, template, sql_text = entry
        # A shape with a literal slot has exactly one literal.
        xpath = f"{head}{quote_literal(values[0])}{tail}" if values else head
        statement = (Statement(sql_text, values) if sql_text is not None
                     else bind(template, values))
        return CachedPlan(key, xpath, statement, template, values), hit

    def _translate(self, shape: Shape, text: str) -> _Entry:
        """Parse, translate and store one shape; nothing is stored if
        either step refuses it."""
        template = parse_tokens(shape, text)
        canonical = str(template)
        key = self._digest(canonical)
        with self.tracer.span("serve.translate", key=key):
            active_fault_plan().maybe_raise("serve.translate")
            sql = self._translator.translate(template)
        # Names hold no "?", so the template's one is the literal slot.
        head, _, tail = canonical.partition("?")
        entry = _Entry(key, head, tail, sql,
                       self._render(sql) if self._render else None)
        with self._lock:
            racer = self._entries.get(shape)
            if racer is not None:
                self._entries.move_to_end(shape)
                return racer
            self._entries[shape] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

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
