"""DBLP scenario: run the joint logical+physical design advisor.

Reproduces the paper's headline workflow on the DBLP schema (Fig. 1a):
generate a synthetic DBLP corpus, define an XPath workload, run the
Greedy search from the paper, and compare the recommended design's
measured execution cost against hybrid inlining (the paper's baseline)
and against the Two-Step (logical-then-physical) approach.

Run with::

    python examples/dblp_advisor.py [n_publications]
"""

import sys

from repro import GreedySearch, TwoStepSearch, Workload
from repro.experiments import (DatasetBundle, measure_design,
                               tuned_hybrid_baseline)

WORKLOAD = [
    # The motivating example (Section 1.1).
    '/dblp/inproceedings[booktitle = "SIGMOD CONFERENCE"]'
    '/(title | year | author)',
    # Selective lookups with author access (loves repetition split).
    '/dblp/inproceedings[booktitle = "VLDB"]/(title | author)',
    '/dblp/inproceedings[year = "2000"]/(title | booktitle | author)',
    # Wide projections (the paper's HP band).
    '/dblp/inproceedings[year >= "1995"]/(title | year | cdrom | cite | '
    'author | editor | pages | booktitle | ee)',
    # Book queries and the shared author type.
    "/dblp/book/(title | publisher | author)",
    "//author",
    # Optional-element access (implicit-union candidates).
    "/dblp/inproceedings[ee]/title",
    "/dblp/inproceedings/(title | ee)",
]


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 2500
    print(f"generating synthetic DBLP ({scale} publications)...")
    bundle = DatasetBundle.dblp(scale=scale)
    workload = Workload.from_strings("dblp-example", WORKLOAD)

    print("tuning the hybrid-inlining baseline...")
    baseline = tuned_hybrid_baseline(bundle, workload)
    print(f"  baseline measured cost: {baseline:.1f}\n")

    print("running the paper's Greedy search...")
    greedy = GreedySearch(bundle.tree, workload, bundle.stats,
                          bundle.storage_bound).run()
    greedy_measured = measure_design(greedy, bundle)
    print(greedy.describe())
    print(f"  searched {greedy.counters.transformations_searched} "
          f"transformations in {greedy.counters.wall_time:.1f}s")
    print(f"  measured cost: {greedy_measured:.1f} "
          f"({greedy_measured / baseline:.2f}x baseline)\n")

    print("running the Two-Step baseline...")
    twostep = TwoStepSearch(bundle.tree, workload, bundle.stats,
                            bundle.storage_bound).run()
    twostep_measured = measure_design(twostep, bundle)
    print(f"  Two-Step measured cost: {twostep_measured:.1f} "
          f"({twostep_measured / baseline:.2f}x baseline)")
    print(f"\nGreedy beats Two-Step by "
          f"{twostep_measured / greedy_measured:.2f}x — the cost of "
          f"ignoring the logical/physical interplay.")


if __name__ == "__main__":
    main()
