"""Query-mix sampling for the load harness.

A :class:`Workload` describes *which* queries matter and their relative
weights; a :class:`QueryMix` turns that into a sampling distribution a
load generator can draw from. The default shape is Zipfian — rank ``r``
gets probability proportional to ``1 / r**skew`` — because real query
logs are head-heavy: a handful of hot queries dominate, which is
exactly the regime where a plan cache pays off.

Reproducibility contract
------------------------

Every sampler in this module **requires an explicit seed**. A
``random.Random()`` constructed without one (or the module-level
``random`` functions) would make load-generator runs non-reproducible —
the whole point of a seeded load harness is that ``--seed N`` twice
produces the identical query sequence. :meth:`MixSampler.sequence`
pre-draws the full sequence up front, so the served order is a pure
function of ``(workload, skew, seed)`` no matter how threads interleave
afterwards.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field

from ..errors import WorkloadError
from ..xpath import XPathQuery
from .model import Workload

__all__ = ["QueryMix", "MixSampler", "zipf_mix"]


@dataclass(frozen=True)
class QueryMix:
    """A sampling distribution over a workload's queries."""

    name: str
    queries: tuple[XPathQuery, ...]
    probabilities: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.queries:
            raise WorkloadError("a query mix needs at least one query")
        probabilities = self.probabilities
        if not probabilities:
            probabilities = tuple([1.0 / len(self.queries)]
                                  * len(self.queries))
        if len(probabilities) != len(self.queries):
            raise WorkloadError(
                "mix probabilities and queries differ in length")
        if any(p <= 0 for p in probabilities):
            raise WorkloadError("mix probabilities must be positive")
        total = sum(probabilities)
        object.__setattr__(self, "probabilities",
                           tuple(p / total for p in probabilities))

    def __len__(self) -> int:
        return len(self.queries)

    def describe(self) -> str:
        lines = [f"mix {self.name!r}:"]
        for query, probability in zip(self.queries, self.probabilities):
            lines.append(f"  {probability:6.2%}  {query}")
        return "\n".join(lines)


def zipf_mix(workload: Workload, skew: float = 1.0) -> QueryMix:
    """Zipf-distribute a workload's queries by their weight rank.

    Queries are ranked by descending workload weight (ties broken by
    position, so the mix is deterministic), and rank ``r`` receives
    probability proportional to ``1 / r**skew``. ``skew=0`` degenerates
    to uniform; larger skews concentrate traffic on the head queries.
    """
    if skew < 0:
        raise WorkloadError("zipf skew must be >= 0")
    ranked = sorted(enumerate(workload.queries),
                    key=lambda pair: (-pair[1].weight, pair[0]))
    queries = tuple(weighted.query for _, weighted in ranked)
    probabilities = tuple(1.0 / (rank + 1) ** skew
                          for rank in range(len(queries)))
    return QueryMix(name=f"{workload.name}-zipf{skew:g}",
                    queries=queries, probabilities=probabilities)


class MixSampler:
    """Deterministic sampler over a :class:`QueryMix`.

    The seed is a required argument on purpose — see the module
    docstring. Two samplers built with the same ``(mix, seed)`` yield
    identical sequences.
    """

    def __init__(self, mix: QueryMix, seed: int):
        if seed is None:  # belt-and-braces against seed-plumbing holes
            raise WorkloadError("MixSampler requires an explicit seed")
        self.mix = mix
        self.seed = seed
        self._rng = random.Random(seed)
        self._cumulative: list[float] = []
        running = 0.0
        for probability in mix.probabilities:
            running += probability
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0  # guard against float drift

    def sample_index(self) -> int:
        """Index into ``mix.queries`` of the next drawn query.

        ``bisect_left`` finds the first cumulative bound ``>= point`` —
        the same first-bound-wins semantics as a linear scan, in
        O(log queries) per draw instead of O(queries); the sampled
        sequence for a fixed ``(mix, seed)`` is pinned byte-identical
        to the scan by ``tests/test_workload.py``.
        """
        point = self._rng.random()
        index = bisect.bisect_left(self._cumulative, point)
        # The final bound is exactly 1.0 and random() < 1.0, so the
        # clamp only guards against float drift.
        return min(index, len(self._cumulative) - 1)

    def sample(self) -> XPathQuery:
        return self.mix.queries[self.sample_index()]

    def sequence(self, n: int) -> list[int]:
        """The next ``n`` sampled indices (a reproducible schedule)."""
        return [self.sample_index() for _ in range(n)]
