"""Fig. 8 — candidate merging strategies.

Quality: run the full Greedy search under the three merging modes on
Movie workloads (whose optional elements the Section 4.7 example uses).

Time: the paper's 2-10x greedy-vs-exhaustive gap comes from the
O(2^|C0|) merged-candidate enumeration; with the Movie schema's two
optional elements that enumeration is trivially small, so the timing
claim is asserted on the merging step directly, over a synthetic schema
with many optional elements.

Paper shapes asserted: greedy merging matches exhaustive merging's
quality; no-merging is never better; the greedy merging *step* is far
faster than the exhaustive one once |C0| grows.
"""

import random
import time

from conftest import QUERIES

from repro.experiments import FIG8_VARIANTS, compare_algorithms, fig8_tables
from repro.mapping import (UnionDistribution, collect_statistics,
                           hybrid_inlining)
from repro.search import CandidateMerger
from repro.workload import Workload
from repro.xmlkit import Document, Element
from repro.xsd import TreeBuilder


def optional_heavy_workload() -> Workload:
    """Queries over the Movie schema's optional elements (Section 4.7)."""
    return Workload.from_strings("OPT-20", [
        "//movie/year",
        "//movie/avg_rating",
        '//movie[year >= "1990"]/title',
        "//movie[avg_rating]/title",
        "//movie/year",
        "//movie/avg_rating",
    ] + ["//movie/year", "//movie/avg_rating"] * 7)


def test_fig8_merging(benchmark, movie_bundle, emit):
    workloads = [optional_heavy_workload()]
    generator = movie_bundle.workload_generator(seed=44)
    workloads.append(generator.generate(QUERIES * 2))
    comparison = benchmark.pedantic(
        lambda: compare_algorithms(movie_bundle, workloads, FIG8_VARIANTS),
        rounds=1, iterations=1)
    emit(fig8_tables(comparison))
    quality = comparison.series("normalized_cost")
    for name, greedy in quality["greedy"].items():
        # Greedy merging never loses to no-merging...
        assert greedy <= quality["none"][name] * 1.05
        # ...and matches exhaustive merging's quality.
        assert greedy <= quality["exhaustive"][name] * 1.2
    # On the optional-heavy workload, merging must show a real win.
    optional = workloads[0].name
    assert quality["greedy"][optional] < quality["none"][optional]


def _wide_optional_case(n_optionals: int = 11, n_records: int = 150):
    """A schema with many optional leaves + per-leaf workload queries."""
    builder = TreeBuilder("wide")
    root = builder.tag("records", annotation="records")
    rep = builder.rep(root)
    record = builder.tag("record", rep, annotation="record")
    builder.leaf("key", record)
    names = [f"f{i}" for i in range(n_optionals)]
    for name in names:
        builder.optional_leaf(name, record)
    tree = builder.build(root)

    rng = random.Random(13)
    doc_root = Element("records")
    for i in range(n_records):
        record_el = doc_root.make_child("record")
        record_el.make_child("key", f"k{i}")
        for name in names:
            if rng.random() < 0.4:
                record_el.make_child(name, f"v{rng.randrange(5)}")
    stats = collect_statistics(tree, Document(doc_root))

    workload = Workload("wide")
    for name in names:
        workload.add(f"//record/{name}")
    mapping = hybrid_inlining(tree)
    candidates = []
    for name in names:
        leaf = tree.find_tag_by_path(("records", "record", name))
        option = tree.parent(leaf)
        candidates.append(UnionDistribution(
            optional_ids=frozenset({option.node_id})))
    return CandidateMerger(mapping, stats, workload), candidates


def test_fig8_merging_step_scaling(benchmark, emit):
    """The paper's timing claim: greedy merging is polynomial, the
    exhaustive subset enumeration exponential in |C0|."""
    merger, candidates = _wide_optional_case()

    def run_both():
        start = time.perf_counter()
        greedy = merger.merge_greedy(list(candidates))
        greedy_time = time.perf_counter() - start
        start = time.perf_counter()
        exhaustive = merger.merge_exhaustive(list(candidates))
        exhaustive_time = time.perf_counter() - start
        return greedy, greedy_time, exhaustive, exhaustive_time

    greedy, greedy_time, exhaustive, exhaustive_time = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    emit(f"merging step over |C0|={len(candidates)} candidates: "
         f"greedy {greedy_time * 1000:.1f} ms, "
         f"exhaustive {exhaustive_time * 1000:.1f} ms "
         f"({exhaustive_time / max(greedy_time, 1e-9):.1f}x)")
    assert exhaustive_time > 2 * greedy_time,         "exhaustive merging must be far slower at this candidate count"
