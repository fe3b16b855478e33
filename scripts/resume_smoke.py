#!/usr/bin/env python
"""SIGKILL resume smoke test: kill a checkpointed search, resume it,
and require the resumed DesignResult to match an uninterrupted run —
for each search that checkpoints, Greedy and then Naive-Greedy.

tests/test_checkpoint.py proves the same property with an injected
fatal fault (deterministic, in-process). This script is the CI
complement with a *real* ``SIGKILL``: the child search is slowed down
with ``hang`` faults so it writes at least one checkpoint before the
parent kills it -9 mid-flight, then the parent resumes from the
surviving snapshot.

Usage: python scripts/resume_smoke.py [--scale N]
Exit 0 when both searches resume to their baseline, 1 otherwise.
"""

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.experiments import DatasetBundle  # noqa: E402
from repro.resilience import NULL_PLAN, install_fault_plan  # noqa: E402
from repro.search import (GreedySearch, NaiveGreedySearch,  # noqa: E402
                          mapping_digest)

# Each evaluation sleeps this long in the child, giving the parent a
# comfortable window between "first checkpoint exists" and "search
# done" in which to deliver the SIGKILL.
HANG_SPEC = "evaluate:1:hang:0.2"

#: The searches that checkpoint, killed and resumed in this order.
SEARCHES = {"greedy": GreedySearch, "naive-greedy": NaiveGreedySearch}


def _problem(scale):
    bundle = DatasetBundle.dblp(scale=scale, seed=11)
    workload = bundle.workload_generator(seed=5).generate(4)
    return bundle, workload


def _search(algorithm, problem, **options):
    bundle, workload = problem
    return SEARCHES[algorithm](bundle.tree, workload, bundle.stats,
                               bundle.storage_bound, **options)


def _fingerprint(result):
    return (mapping_digest(result.mapping), tuple(result.applied),
            result.estimated_cost, result.configuration.describe())


def _child(algorithm, scale, ckpt_dir):
    install_fault_plan(HANG_SPEC)
    _search(algorithm, _problem(scale), checkpoint=ckpt_dir).run()
    return 0


def _parent(algorithm, problem, scale, ckpt_dir):
    say = f"resume-smoke [{algorithm}]:"
    print(f"{say} running uninterrupted baseline ...", flush=True)
    baseline = _search(algorithm, problem).run()

    ckpt_file = Path(ckpt_dir) / "search.ckpt"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(REPO / "src"),
                                 os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, __file__, "--child", algorithm,
         "--scale", str(scale), "--checkpoint-dir", str(ckpt_dir)],
        env=env)
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if child.poll() is not None:
                # Finished before we struck — the final checkpoint still
                # exists, so the resume path below remains meaningful.
                print(f"{say} child finished before the kill", flush=True)
                break
            if ckpt_file.exists():
                time.sleep(1.0)  # let a round or two more land
                print(f"{say} checkpoint seen, sending SIGKILL",
                      flush=True)
                child.send_signal(signal.SIGKILL)
                child.wait(timeout=30)
                break
            time.sleep(0.1)
        else:
            print(f"{say} FAIL — no checkpoint within 120s")
            return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)

    if not ckpt_file.exists():
        print(f"{say} FAIL — checkpoint file missing after kill")
        return 1
    install_fault_plan(NULL_PLAN)
    print(f"{say} resuming from the surviving checkpoint ...", flush=True)
    resumed = _search(algorithm, problem, checkpoint=ckpt_dir,
                      resume=True).run()
    if _fingerprint(resumed) != _fingerprint(baseline):
        print(f"{say} FAIL — resumed result differs from baseline")
        print(f"  baseline: {_fingerprint(baseline)}")
        print(f"  resumed:  {_fingerprint(resumed)}")
        return 1
    print(f"{say} PASS — resumed design identical "
          f"(cost {resumed.estimated_cost:.1f}, "
          f"{len(resumed.applied)} transformations)")
    return 0


def _parents(scale, root):
    problem = _problem(scale)
    failed = [algorithm for algorithm in SEARCHES
              if _parent(algorithm, problem, scale, Path(root) / algorithm)]
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=150)
    parser.add_argument("--child", choices=sorted(SEARCHES), default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--checkpoint-dir", default=None)
    args = parser.parse_args()
    if args.child:
        return _child(args.child, args.scale, args.checkpoint_dir)
    import tempfile
    ckpt_dir = args.checkpoint_dir
    if ckpt_dir is None:
        with tempfile.TemporaryDirectory(prefix="resume-smoke-") as tmp:
            return _parents(args.scale, tmp)
    return _parents(args.scale, ckpt_dir)


if __name__ == "__main__":
    sys.exit(main())
