"""Serial vs. parallel candidate costing.

Measures the claim the evaluation engine makes (docs/performance.md): a
greedy search at ``jobs=4`` produces the *identical* DesignResult as
the serial run, in less wall-clock time on multi-core hardware (the
speedup assertion is gated on ``os.cpu_count() >= 4`` — on fewer cores
the parallel run pays pool overhead for no gain, and the numbers are
recorded as-is).

Runs two ways:

* under pytest with the other benchmarks
  (``pytest benchmarks/bench_parallel_speedup.py``);
* as a script — ``python benchmarks/bench_parallel_speedup.py
  [--smoke]`` — where ``--smoke`` shrinks the dataset so CI can
  exercise the parallel path in seconds (the identity check still
  asserts; the speedup is only recorded).
"""

from __future__ import annotations

import os
import time

from repro.experiments import DatasetBundle
from repro.search import GreedySearch, mapping_digest

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "1200"))
QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "10"))


def _fingerprint(result):
    return (mapping_digest(result.mapping), tuple(result.applied),
            result.estimated_cost, result.configuration.describe())


def _timed_search(bundle, workload, jobs=None):
    search = GreedySearch(bundle.tree, workload, bundle.stats,
                          bundle.storage_bound, jobs=jobs)
    start = time.perf_counter()
    result = search.run()
    return result, time.perf_counter() - start


def run_speedup(scale, queries, jobs=4, emit=print):
    """Serial vs. ``jobs``-way greedy on DBLP (the larger dataset).

    Asserts result identity; returns the measured speedup factor.
    """
    bundle = DatasetBundle.dblp(scale=scale)
    workload = bundle.workload_generator(seed=41).generate(queries)
    serial, t_serial = _timed_search(bundle, workload)
    parallel, t_parallel = _timed_search(bundle, workload, jobs=jobs)
    assert _fingerprint(parallel) == _fingerprint(serial), \
        "parallel run diverged from serial"
    speedup = t_serial / max(t_parallel, 1e-9)
    emit(f"BENCH parallel-speedup dataset=DBLP scale={scale} "
         f"queries={queries} cpus={os.cpu_count()} jobs={jobs} "
         f"serial={t_serial:.2f}s parallel={t_parallel:.2f}s "
         f"speedup={speedup:.2f}x")
    return speedup


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_parallel_identical_and_faster(emit):
    speedup = run_speedup(SCALE, QUERIES, emit=emit)
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 1.5, \
            f"expected >=1.5x speedup at 4 jobs, got {speedup:.2f}x"


# ----------------------------------------------------------------------
# Script entry point (CI smoke mode)
# ----------------------------------------------------------------------


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small scale: exercise the parallel path "
                             "quickly; record (don't assert) the speedup")
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args(argv)
    scale = args.scale or (150 if args.smoke else SCALE)
    queries = args.queries or (4 if args.smoke else QUERIES)
    speedup = run_speedup(scale, queries, jobs=args.jobs)
    if not args.smoke and (os.cpu_count() or 1) >= 4 and speedup < 1.5:
        raise SystemExit(
            f"expected >=1.5x speedup at {args.jobs} jobs, "
            f"got {speedup:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
