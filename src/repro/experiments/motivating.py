"""E0 — the Section 1.1 motivating example.

Mapping 1 = hybrid inlining; Mapping 2 = Mapping 1 plus repetition split
of the first k authors into the ``inproc`` table. The SIGMOD-papers
query runs under both mappings, each with (a) no physical design beyond
the primary keys and (b) the advisor's recommended design.

Paper numbers: tuned, Mapping 2 beats Mapping 1 by ~20x (0.25 s vs
5.1 s); untuned, the ordering *reverses* (27 s vs 21 s) — the fact that
makes logical-then-physical design suboptimal.

:class:`SigmodAuthors` is the setting this example shares with the
split-count sweep (:mod:`repro.experiments.split_count`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..mapping import hybrid_inlining
from ..physdesign import Configuration
from ..search import DesignResult, MappingEvaluator
from ..workload import Workload
from .harness import DatasetBundle, measure_design

SIGMOD_QUERY = ('/dblp/inproceedings[booktitle = "SIGMOD CONFERENCE"]'
                '/(title | year | author)')


@dataclass(frozen=True)
class SplitCount:
    """The k E0 or the sweep splits the authors at, and its source."""

    k: int
    fallback: bool   # the statistics suggested no k; k is the paper's 5

    def __str__(self) -> str:
        if self.fallback:
            return f"fallback k = {self.k} (the statistics suggest none)"
        return f"suggested k = {self.k}"


class SigmodAuthors:
    """The SIGMOD query over hybrid-inlined DBLP, with the first k
    authors of each paper split out of the author repetition."""

    def __init__(self, bundle: DatasetBundle):
        self.bundle = bundle
        self.workload = Workload.from_strings("sigmod", [SIGMOD_QUERY])
        author = bundle.tree.find_tag_by_path(
            ("dblp", "inproceedings", "author"))
        self.rep_id = bundle.tree.parent(author).node_id
        self.evaluator = MappingEvaluator(self.workload, bundle.stats,
                                          bundle.storage_bound)

    def split_count(self, cmax: int) -> SplitCount:
        """Section 4.6: the smallest k <= ``cmax`` covering 99 % of the
        papers, or the paper's k = 5 when the statistics suggest none."""
        k = self.bundle.stats.suggest_split_count(self.rep_id, cmax=cmax,
                                                  coverage=0.99)
        return SplitCount(5, True) if k is None else SplitCount(k, False)

    def design(self, k: int) -> DesignResult:
        """Hybrid inlining split at ``k`` (0: unsplit), as the advisor
        tunes it."""
        mapping = hybrid_inlining(self.bundle.tree)
        if k:
            mapping = mapping.with_split(self.rep_id, k)
        evaluated = self.evaluator.evaluate(mapping)
        assert evaluated is not None
        return DesignResult(f"rep-split {k}", self.workload, mapping,
                            evaluated.schema, evaluated.tuning.configuration,
                            evaluated.sql_queries, evaluated.total_cost,
                            self.evaluator.counters)


@dataclass
class MotivatingResult:
    mapping1_untuned: float
    mapping2_untuned: float
    mapping1_tuned: float
    mapping2_tuned: float
    split: SplitCount

    @property
    def tuned_speedup(self) -> float:
        """How much Mapping 2 wins by, with physical design."""
        return self.mapping1_tuned / self.mapping2_tuned

    @property
    def ordering_reverses_untuned(self) -> bool:
        return self.mapping2_untuned >= self.mapping1_untuned

    def rows(self) -> list[list]:
        return [
            ["Mapping 1 (hybrid)", self.mapping1_untuned,
             self.mapping1_tuned],
            [f"Mapping 2 (rep-split {self.split.k})", self.mapping2_untuned,
             self.mapping2_tuned],
        ]


def run_motivating_example(bundle: DatasetBundle | None = None,
                           scale: int = 4000) -> MotivatingResult:
    bundle = bundle or DatasetBundle.dblp(scale=scale)
    example = SigmodAuthors(bundle)
    split = example.split_count(cmax=5)
    untuned, tuned = [], []
    for k in (0, split.k):   # Mapping 1, Mapping 2
        design = example.design(k)
        # Untuned: data + primary keys only.
        untuned.append(measure_design(
            dataclasses.replace(design, configuration=Configuration()),
            bundle))
        tuned.append(measure_design(design, bundle))
    return MotivatingResult(*untuned, *tuned, split)
