"""``--compare A.json B.json``: judge B against A, metric by metric.

Each file is a history written by ``--out``: one JSON line per suite
run. Every line of a file is one sample of each (workload, metric), so
a file with several lines carries its own run-to-run spread.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from metrics import BY_NAME, Metric


def load_history(path: str | Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the untraced value of every run in the file."""
    samples: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        for workload, passes in json.loads(line)["results"].items():
            for name, entry in passes["untraced"]["metrics"].items():
                samples.setdefault((workload, name), []).append(
                    entry["value"])
    return samples


def spread(values: list[float]) -> float:
    """Interquartile distance (the range, under four samples) as a share
    of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def verdict(metric: Metric, before: list[float], after: list[float]
            ) -> tuple[str, float]:
    """``ok`` / ``regressed`` / ``unresolved`` and the worsening of the
    median as a share of the old median (negative: it got better)."""
    old, new = statistics.median(before), statistics.median(after)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse = sign * (new - old) / abs(old) if old else sign * (new - old)
    if metric.bound == 0:       # must repeat exactly
        if len(set(before) | set(after)) == 1 or worse < 0:
            return "ok", worse
        return ("regressed" if worse > 0 else "unresolved"), worse
    if max(spread(before), spread(after)) > metric.bound:
        if metric.better == "lower":
            clear = max(after) < min(before)
        else:
            clear = min(after) > max(before)
        return ("ok" if clear else "unresolved"), worse
    return ("regressed" if worse > metric.bound else "ok"), worse


def compare(path_a: str, path_b: str) -> tuple[list[str], bool]:
    """One row per (workload, bounded metric); True when none regressed."""
    before, after = load_history(path_a), load_history(path_b)
    rows = [f"{'workload':<15} {'metric':<22} {'A median':>13} "
            f"{'B median':>13} {'worse by':>9} {'bound':>6}  verdict"]
    clean = True
    for key in sorted(before.keys() & after.keys()):
        metric = BY_NAME.get(key[1])
        if metric is None or metric.bound is None:
            continue
        status, worse = verdict(metric, before[key], after[key])
        clean = clean and status != "regressed"
        rows.append(
            f"{key[0]:<15} {key[1]:<22} "
            f"{statistics.median(before[key]):>13.6g} "
            f"{statistics.median(after[key]):>13.6g} {worse:>+9.1%} "
            f"{metric.bound:>6.2f}  {status} "
            f"(n={len(before[key])},{len(after[key])})")
    return rows, clean
