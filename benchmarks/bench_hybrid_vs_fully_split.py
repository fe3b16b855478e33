"""Section 5.1.4's baseline-choice claim.

"[Hybrid inlining] is not only one of the mappings with the best
performance in [20], we also find in our experiments that it performs
better than the fully split mapping when combined with physical design"
— because (1) it avoids joins and (2) the physical design tool can
recommend covering indexes on its wide tables anyway.

Asserted: tuned hybrid inlining beats tuned fully-split on every
standard workload band.
"""

from repro.experiments import format_table, measure_design
from repro.search import design_for


def test_hybrid_beats_fully_split_when_tuned(benchmark, dblp_bundle, emit):
    workloads = dblp_bundle.workload_generator(seed=49).standard_suite(8)

    def run():
        rows = []
        for workload in workloads:
            costs = {
                name: measure_design(
                    design_for(name, dblp_bundle.tree, workload,
                               dblp_bundle.stats, dblp_bundle.storage_bound),
                    dblp_bundle)
                for name in ("hybrid", "fully-split")}
            rows.append([workload.name, costs["hybrid"],
                         costs["fully-split"],
                         costs["fully-split"] / costs["hybrid"]])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        "Section 5.1.4 — tuned hybrid vs. tuned fully-split (DBLP)",
        ["workload", "hybrid cost", "fully-split cost", "ratio"], rows,
        note="the paper's reason for normalizing to hybrid inlining"))
    for _, hybrid_cost, split_cost, _ in rows:
        assert hybrid_cost <= split_cost * 1.02, \
            "tuned hybrid must not lose to tuned fully-split"
    # And it should clearly win somewhere (joins are expensive).
    assert any(split / hybrid > 1.3 for _, hybrid, split, _ in rows)
