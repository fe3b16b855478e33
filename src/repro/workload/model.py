"""Workload model: weighted XPath queries (paper Definition 1)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import WorkloadError
from ..xpath import XPathQuery, parse_xpath


@dataclass(frozen=True)
class WeightedQuery:
    """One workload entry ``(Q_i, f_i)``."""

    query: XPathQuery
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError("query weights must be positive")


@dataclass
class Workload:
    """A named set of weighted XPath queries."""

    name: str
    queries: list[WeightedQuery] = field(default_factory=list)

    @classmethod
    def from_strings(cls, name: str, xpaths: list[str],
                     weights: list[float] | None = None) -> "Workload":
        if weights is None:
            weights = [1.0] * len(xpaths)
        if len(weights) != len(xpaths):
            raise WorkloadError("weights and queries differ in length")
        return cls(name=name, queries=[
            WeightedQuery(parse_xpath(x), w)
            for x, w in zip(xpaths, weights)])

    def add(self, xpath: str | XPathQuery, weight: float = 1.0) -> None:
        if isinstance(xpath, str):
            xpath = parse_xpath(xpath)
        self.queries.append(WeightedQuery(xpath, weight))

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def total_weight(self) -> float:
        return sum(q.weight for q in self.queries)

    def describe(self) -> str:
        return "\n".join(f"[{q.weight:g}] {q.query}" for q in self.queries)
