"""The measurement spine: five workloads, XML file to served answer.

Suite (what a person runs; one child process per workload)::

    python benchmarks/spine/run.py --seed 7            # end-to-end pass
    python benchmarks/spine/run.py --seed 7 --traced   # + per-layer pass
    python benchmarks/spine/run.py --smoke --traced    # tiny, < 30 s
    python benchmarks/spine/run.py --workload serve_point --out hist.json
    python benchmarks/spine/run.py --compare A.json B.json

One workload in this process (what the suite and the benchmark driver
run; the last line of standard output is the result object)::

    python benchmarks/spine/run.py --workload ingest --seed 7 \\
        --seconds 15 --trace 0

See README.md beside this file for the workloads, the metrics and how
to read the traced output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from compare import compare                                  # noqa: E402
from metrics import BY_NAME, GATE, LAYERS, NAMED, WORKLOADS  # noqa: E402

#: Settings that change what the library does; a measured run has none.
STRIPPED = ("REPRO_PARALLEL", "REPRO_FAULTS", "REPRO_RETRY_",
            "REPRO_CACHE_DIR", "REPRO_CHECK", "PYTEST_CURRENT_TEST")
SMOKE_SECONDS = 1.0


def clean_environment(environ) -> dict[str, str]:
    return {key: value for key, value in environ.items()
            if not key.startswith(STRIPPED)}


def default_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["run_seconds"])


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    for key in set(os.environ) - set(clean_environment(os.environ)):
        del os.environ[key]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"spine: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    traced = bool(args.trace)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.seed, args.seconds, traced, args.smoke, tmp)
    try:
        workloads.RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    measured = run.metrics()
    wanted = LAYERS if traced else GATE
    missing = [m.name for m in wanted if m.name not in measured]
    if missing:
        print(f"spine: {args.workload} did not measure {missing}",
              file=sys.stderr)
        return 2
    if traced:
        run.recorder.write(OUT / f"trace-{args.workload}.json", {
            "workload": args.workload, "seed": args.seed,
            "smoke": args.smoke})
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m.name: {"value": measured[m.name][0], "unit": m.unit}
                    for m in wanted},
    }
    if args.full:
        result["metrics"] = {
            name: {"value": value, "unit": BY_NAME[name].unit, "n": n}
            for name, (value, n) in sorted(measured.items())
            if name in BY_NAME
            and args.workload in BY_NAME[name].workloads}
        result["sizes"] = run.sizes
        result["scale"] = run.size
        result["problems"] = run.problems
    for problem in run.problems:
        print(f"spine: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


# ----------------------------------------------------------------------
# The suite: one child per workload and pass
# ----------------------------------------------------------------------
def environment(args, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    duckdb = None
    if find_spec("duckdb") is not None:
        import duckdb as module
        duckdb = module.__version__
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version, "duckdb": duckdb,
        "commit": commit, "seed": args.seed, "seconds": seconds,
        "smoke": args.smoke, "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def run_child(workload: str, args, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(trace), "--full"]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                           env=clean_environment(os.environ))
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        raise SystemExit(f"spine: {workload} (trace {trace}) exited "
                         f"{child.returncode} without a result")
    return json.loads(lines[-1])


def show(workload: str, label: str, result: dict, chosen) -> None:
    print(f"\n{workload} [{label}]  attempted {result['attempted']}  "
          f"failed {result['failed']}  "
          f"{'correct' if result['correct'] else 'WRONG ANSWERS'}")
    for metric in chosen:
        entry = result["metrics"].get(metric.name)
        if entry is not None:
            print(f"  {metric.name:<32} {entry['value']:>14.6g} "
                  f"{entry['unit']:<10} n={entry['n']}")
    for key, value in result["sizes"].items():
        print(f"  . {key}: {value}")


def run_suite(args) -> int:
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else default_seconds())
    record = {"env": environment(args, seconds), "results": {}}
    print("environment:", json.dumps(record["env"]))
    correct = True
    for workload in args.workloads or WORKLOADS:
        passes = {"untraced": run_child(workload, args, seconds, 0)}
        show(workload, "end to end, at reference machine speed",
             passes["untraced"],
             GATE + NAMED + (BY_NAME["bench.machine_speed"],))
        if args.traced:
            passes["traced"] = run_child(workload, args, seconds, 1)
            show(workload, "per layer, traced", passes["traced"], LAYERS)
            print(f"  . spans: {OUT / f'trace-{workload}.json'}")
        correct = correct and all(p["correct"] for p in passes.values())
        record["env"]["scale"] = passes["untraced"].pop("scale")
        record["results"][workload] = passes
    if args.out:
        with open(args.out, "a", encoding="utf-8") as history:
            history.write(json.dumps(record) + "\n")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=WORKLOADS, metavar="NAME",
                        help=f"one of {', '.join(WORKLOADS)} (repeatable "
                             f"for the suite; default all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run ONE workload in this process: 0 the "
                             "end-to-end pass, 1 the traced per-layer pass")
    parser.add_argument("--full", action="store_true",
                        help="with --trace: every metric, sample counts "
                             "and sizes in the result object")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add the traced per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, same checks")
    parser.add_argument("--out", metavar="FILE",
                        help="suite: append this run as one JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="judge history B against history A")
    args = parser.parse_args(argv)
    if args.compare:
        rows, clean = compare(*args.compare)
        print("\n".join(rows))
        return 0 if clean else 1
    if args.trace is None:
        return run_suite(args)
    if not args.workloads or len(args.workloads) != 1:
        parser.error("--trace runs exactly one --workload")
    args.workload = args.workloads[0]
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else default_seconds()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
