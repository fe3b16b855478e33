"""Self-tests of the measurement spine (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest benchmarks/spine``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import compare, spread, verdict                    # noqa: E402
from loadgen import (Passes, Schedule, Slice, percentile,           # noqa: E402
                     sequence_digest, summarize_closed, supported_tail,
                     zipf_weights)
from metrics import BY_NAME, WORKLOADS, Metric, benchmark_json  # noqa: E402
from spans import Recorder                                      # noqa: E402


def test_percentile_is_nearest_rank():
    sample = list(range(1, 101))
    assert percentile(sample, 50) == 50
    assert percentile(sample, 95) == 95
    assert percentile(sample, 100) == 100
    assert percentile([7.0], 95) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_supported_tail_needs_ten_samples_beyond():
    assert supported_tail(1000) == 99
    assert supported_tail(999) == 95
    assert supported_tail(200) == 95
    assert supported_tail(199) == 90
    assert supported_tail(99) == 50


def test_slice_medians():
    def make(n, latency, wall=1.0):
        return Slice(wall=wall, cpu=0.5, latencies=[latency] * n)

    slices = [make(100, 0.010), make(200, 0.005), make(1000, 0.001)]
    summary = summarize_closed(slices)
    assert summary.qps == 200                  # the median slice, not the mean
    assert summary.p50_ms == pytest.approx(5.0)
    assert summary.p95_ms == pytest.approx(5.0)
    assert summary.requests == 1300
    assert summary.cpu_us_per_req == pytest.approx(1.5e6 / 1300)
    assert summary.min_slice_requests == 100
    assert summary.outliers == 2               # 100 and 1000 are > 25 % off


def test_same_seed_same_sequence():
    weights = zipf_weights(64, 1.0)

    def digest(seed, w=weights):
        return sequence_digest(Schedule(w, seed))

    assert digest(7) == digest(7)
    assert digest(7) != digest(11)
    assert digest(7) != digest(7, zipf_weights(64, 0.0))
    a, b = Schedule(weights, 3), Schedule(weights, 3)
    assert [next(a) for _ in range(5000)] == [next(b) for _ in range(5000)]


def test_passes_serve_every_query_once_per_pass():
    passes = Passes(10, 5)
    first = [next(passes) for _ in range(10)]
    second = [next(passes) for _ in range(10)]
    assert sorted(first) == sorted(second) == list(range(10))
    assert first != second
    assert sequence_digest(Passes(10, 5)) == sequence_digest(Passes(10, 5))
    assert sequence_digest(Passes(10, 5)) != sequence_digest(Passes(10, 6))


def test_zipf_head_is_heavy_and_uniform_is_flat():
    draws = Schedule(zipf_weights(64, 1.0), 1)
    head = sum(1 for _ in range(20000) if next(draws) == 0)
    assert 0.15 < head / 20000 < 0.27           # 1 / H(64) = 0.21
    assert len(set(zipf_weights(8, 0.0))) == 1


def test_self_time_is_span_minus_children():
    recorder = Recorder()
    parent = recorder.add("request", 0.0, 10.0)
    recorder.add("plan", 1.0, 3.0, parent)
    recorder.add("execute", 3.0, 9.0, parent)
    totals = recorder.totals()
    assert totals["request"]["self_s"] == pytest.approx(2.0)
    assert totals["execute"]["total_s"] == pytest.approx(6.0)
    assert totals["plan"]["count"] == 1


def _history(path, values):
    """One line per run; ``values`` maps metric -> list, one per run."""
    runs = len(next(iter(values.values())))
    lines = []
    for i in range(runs):
        metrics = {name: {"value": series[i], "unit": BY_NAME[name].unit}
                   for name, series in values.items()}
        lines.append(json.dumps({"results": {"serve_point": {
            "untraced": {"metrics": metrics}}}}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_compare_verdicts(tmp_path):
    qps = Metric("qps", "req/s", "higher", 0.10)
    assert verdict(qps, [1000.0], [950.0])[0] == "ok"
    assert verdict(qps, [1000.0], [800.0])[0] == "regressed"
    assert verdict(qps, [1000.0], [1500.0])[0] == "ok"
    noisy = [600.0, 1000.0, 1400.0, 1000.0]
    assert spread(noisy) > qps.bound
    assert verdict(qps, noisy, [900.0])[0] == "unresolved"
    assert verdict(qps, noisy, [1500.0, 1600.0])[0] == "ok"     # all better
    p50 = Metric("p50_ms", "ms", "lower", 0.10)
    assert verdict(p50, [1.0], [1.2])[0] == "regressed"
    assert verdict(p50, [1.0], [1.05])[0] == "ok"
    exact = Metric("advise_est_cost", "model-cost", "lower", 0.0)
    assert verdict(exact, [5.0, 5.0], [5.0])[0] == "ok"
    assert verdict(exact, [5.0], [5.0001])[0] == "regressed"
    assert verdict(exact, [5.0], [4.0])[0] == "ok"

    a = _history(tmp_path / "a.json", {"qps": [1000.0, 1010.0],
                                       "p50_ms": [1.0, 1.0]})
    b = _history(tmp_path / "b.json", {"qps": [700.0, 705.0],
                                       "p50_ms": [1.0, 1.01]})
    rows, clean = compare(a, b)
    assert not clean
    assert any("qps" in row and "regressed" in row for row in rows)
    assert any("p50_ms" in row and row.rstrip().endswith("(n=2,2)")
               and " ok " in row for row in rows)
    assert compare(a, a)[1]


def test_benchmark_json_is_the_registry():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    expected = benchmark_json()
    assert declared["end_to_end"] == expected["end_to_end"]
    assert declared["per_layer"] == expected["per_layer"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["paths"] == ["benchmarks/spine"]
    assert any(m["name"] == "setup_s" for m in declared["end_to_end"])


def test_smoke_exits_zero(tmp_path):
    history = tmp_path / "history.json"
    for extra in (["--traced"], ["--workload", "serve_point"]):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--out",
             str(history), *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    whole, again = (json.loads(line) for line in
                    history.read_text("utf-8").splitlines())    # appended
    assert list(whole["results"]) == list(WORKLOADS)
    for passes in whole["results"].values():
        assert passes["untraced"]["correct"] and passes["traced"]["correct"]
    assert list(again["results"]) == ["serve_point"]
    digest = [record["results"]["serve_point"]["untraced"]["sizes"][
        "sequence_digest"] for record in (whole, again)]
    assert digest[0] == digest[1]
    assert whole["env"]["nproc"] >= 1 and whole["env"]["sqlite"]
