"""Checkpoint/resume: a killed search resumes to an identical result.

The kill is an injected *fatal* fault armed at a deterministic
evaluation count (``evaluate:1:fatal:0:N``) — no subprocesses, no
timing — so these tests replay exactly. All searches here pin
``jobs=1``: in a process pool a worker-raised fatal fault is an
infrastructure error (the pool degrades and the batch completes), so
the deterministic mid-search kill needs the serial path. The
serial/parallel identity is proven in test_parallel.py, and
``scripts/resume_smoke.py`` covers the real-SIGKILL variant in CI.
"""

import pickle
import sys

import pytest

from repro.errors import CheckpointError, InjectedFault
from repro.experiments import DatasetBundle
from repro.obs import Tracer
from repro.resilience import NULL_PLAN, CheckpointStore, install_fault_plan
from repro.search import (GreedySearch, NaiveGreedySearch, mapping_digest,
                          problem_digest)
from repro.workload import Workload


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    install_fault_plan(NULL_PLAN)
    yield
    install_fault_plan(NULL_PLAN)


@pytest.fixture(scope="module")
def problems():
    out = {}
    for name in ("dblp", "movie"):
        maker = getattr(DatasetBundle, name)
        bundle = maker(scale=150, seed=11)
        workload = bundle.workload_generator(seed=5).generate(4)
        out[name] = (bundle, workload)
    return out


def _greedy(problem, **kwargs):
    bundle, workload = problem
    return GreedySearch(bundle.tree, workload, bundle.stats,
                        bundle.storage_bound, jobs=1, **kwargs)


def _naive(problem, **kwargs):
    bundle, workload = problem
    return NaiveGreedySearch(bundle.tree, workload, bundle.stats,
                             storage_bound=bundle.storage_bound, jobs=1,
                             max_rounds=2, **kwargs)


@pytest.fixture(scope="module")
def baselines(problems):
    return {name: _greedy(problem).run()
            for name, problem in problems.items()}


class _Removed:
    """A class a later version of the code deletes."""


def _fingerprint(result):
    return (mapping_digest(result.mapping), tuple(result.applied),
            result.estimated_cost, result.configuration.describe())


class TestKillAndResume:
    @pytest.mark.parametrize("dataset", ["dblp", "movie"])
    def test_greedy_resumes_to_identical_result(self, problems, baselines,
                                                dataset, tmp_path):
        baseline = baselines[dataset]
        evaluations = baseline.counters.mappings_evaluated
        assert evaluations >= 4, "problem too small to kill mid-search"
        kill_at = max(3, evaluations // 2)
        install_fault_plan(f"evaluate:1:fatal:0:{kill_at}")
        with pytest.raises(InjectedFault):
            _greedy(problems[dataset], checkpoint=tmp_path).run()
        assert CheckpointStore(tmp_path).load() is not None
        install_fault_plan(NULL_PLAN)
        resumed = _greedy(problems[dataset], checkpoint=tmp_path,
                          resume=True).run()
        assert _fingerprint(resumed) == _fingerprint(baseline)
        # The snapshot carries the evaluator memo and the counters, so
        # resume replays only the partial round: the logical evaluation
        # count lands exactly on the uninterrupted run's.
        assert resumed.counters.mappings_evaluated == evaluations

    def test_naive_resumes_to_identical_result(self, problems, tmp_path):
        baseline = _naive(problems["dblp"]).run()
        kill_at = max(3, baseline.counters.mappings_evaluated // 2)
        install_fault_plan(f"evaluate:1:fatal:0:{kill_at}")
        with pytest.raises(InjectedFault):
            _naive(problems["dblp"], checkpoint=tmp_path).run()
        install_fault_plan(NULL_PLAN)
        resumed = _naive(problems["dblp"], checkpoint=tmp_path,
                         resume=True).run()
        assert _fingerprint(resumed) == _fingerprint(baseline)

    def test_resume_without_checkpoint_starts_fresh(self, problems,
                                                    baselines, tmp_path):
        result = _greedy(problems["dblp"], checkpoint=tmp_path,
                         resume=True).run()
        assert _fingerprint(result) == _fingerprint(baselines["dblp"])
        assert result.counters.checkpoints_written >= 1


class TestCheckpointValidation:
    def test_wrong_problem_is_rejected_loudly(self, problems, tmp_path):
        bundle, workload = problems["dblp"]
        install_fault_plan("evaluate:1:fatal:0:3")
        with pytest.raises(InjectedFault):
            _greedy(problems["dblp"], checkpoint=tmp_path).run()
        install_fault_plan(NULL_PLAN)
        other_workload = bundle.workload_generator(seed=99).generate(4)
        with pytest.raises(CheckpointError):
            _greedy((bundle, other_workload), checkpoint=tmp_path,
                    resume=True).run()

    def test_wrong_algorithm_is_rejected_loudly(self, problems, tmp_path):
        install_fault_plan("evaluate:1:fatal:0:3")
        with pytest.raises(InjectedFault):
            _greedy(problems["dblp"], checkpoint=tmp_path).run()
        install_fault_plan(NULL_PLAN)
        with pytest.raises(CheckpointError):
            _naive(problems["dblp"], checkpoint=tmp_path, resume=True).run()

    def test_corrupt_checkpoint_degrades_to_fresh_start(self, problems,
                                                        baselines,
                                                        tmp_path):
        store = CheckpointStore(tmp_path)
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_bytes(b"\x80\x04 torn before the payload ended")
        result = _greedy(problems["dblp"], checkpoint=tmp_path,
                         resume=True).run()
        assert _fingerprint(result) == _fingerprint(baselines["dblp"])


    def test_old_layout_checkpoint_degrades_to_fresh_start(self, problems,
                                                           baselines,
                                                           tmp_path):
        """A version-1 snapshot (``memo`` + ``partial_memo`` at the top
        level, no ``evaluator`` entry) fails the version gate and loads
        as "no checkpoint" — never a ``KeyError`` from the new codec."""
        install_fault_plan("evaluate:1:fatal:0:3")
        with pytest.raises(InjectedFault):
            _greedy(problems["dblp"], checkpoint=tmp_path).run()
        install_fault_plan(NULL_PLAN)
        store = CheckpointStore(tmp_path)
        state = pickle.loads(store.path.read_bytes())
        evaluator_state = state.pop("evaluator")
        state.update(version=1, memo=evaluator_state["memo"],
                     partial_memo={})
        store.path.write_bytes(pickle.dumps(state))

        tracer = Tracer()
        result = _greedy(problems["dblp"], checkpoint=tmp_path,
                         resume=True, tracer=tracer).run()
        assert tracer.metric_snapshot()["checkpoint"][
            "version_mismatches"] == 1
        assert "resumes" not in tracer.metric_snapshot()["checkpoint"]
        assert _fingerprint(result) == _fingerprint(baselines["dblp"])
        assert result.counters.mappings_evaluated == \
            baselines["dblp"].counters.mappings_evaluated

    def test_a_snapshot_naming_a_removed_class_is_an_old_layout(
            self, tmp_path, monkeypatch):
        """A snapshot pickling a class the code has since deleted (an
        older tuned configuration's ``ViewCandidate``) loads as absent
        under ``version_mismatches``, not as a corrupt file."""
        store = CheckpointStore(tmp_path, tracer=Tracer())
        store.root.mkdir(parents=True, exist_ok=True)
        store.path.write_bytes(pickle.dumps({"version": 8,
                                             "views": [_Removed()]}))
        monkeypatch.delattr(sys.modules[_Removed.__module__], "_Removed")
        assert store.load() is None
        assert store.tracer.metric_snapshot()["checkpoint"] == {
            "version_mismatches": 1}

    def test_problem_digest_stable_across_processes(self, problems):
        """The joint-presence stats are keyed by frozensets; their repr
        order follows string hash randomization, so the digest must
        canonicalize dict keys or a resume in another interpreter sees
        "a different problem"."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        bundle, _ = problems["dblp"]
        workload = Workload.from_strings("w", ["/dblp/inproceedings/title"])
        local = _greedy((bundle, workload)).problem_key()
        assert local.startswith(
            problem_digest(workload, bundle.stats, bundle.storage_bound))
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "from repro.experiments import DatasetBundle\n"
            "from repro.search import GreedySearch\n"
            "from repro.workload import Workload\n"
            "bundle = DatasetBundle.dblp(scale=150, seed=11)\n"
            "workload = Workload.from_strings('w', "
            "['/dblp/inproceedings/title'])\n"
            "print(GreedySearch(bundle.tree, workload, bundle.stats, "
            "bundle.storage_bound, jobs=1).problem_key())\n")
        for hashseed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": hashseed})
            assert proc.stdout.strip() == local


class TestCheckpointWriteFaults:
    def test_failed_writes_never_hurt_the_search(self, problems,
                                                 baselines, tmp_path):
        install_fault_plan("checkpoint.write:1:transient")
        result = _greedy(problems["dblp"], checkpoint=tmp_path).run()
        assert _fingerprint(result) == _fingerprint(baselines["dblp"])
        assert result.counters.checkpoints_written == 0
        assert CheckpointStore(tmp_path).load() is None

    def test_torn_writes_load_as_absent(self, problems, baselines,
                                        tmp_path):
        install_fault_plan("checkpoint.write:1:torn")
        result = _greedy(problems["dblp"], checkpoint=tmp_path).run()
        assert _fingerprint(result) == _fingerprint(baselines["dblp"])
        install_fault_plan(NULL_PLAN)
        assert CheckpointStore(tmp_path).load() is None
        # ... so a resume against the torn file simply starts fresh.
        resumed = _greedy(problems["dblp"], checkpoint=tmp_path,
                          resume=True).run()
        assert _fingerprint(resumed) == _fingerprint(baselines["dblp"])

    def test_checkpoint_every_thins_snapshots(self, problems, baselines,
                                              tmp_path):
        dense = _greedy(problems["dblp"], checkpoint=tmp_path / "a").run()
        sparse = _greedy(problems["dblp"], checkpoint=tmp_path / "b",
                         checkpoint_every=3).run()
        assert _fingerprint(dense) == _fingerprint(baselines["dblp"])
        assert _fingerprint(sparse) == _fingerprint(baselines["dblp"])
        assert 1 <= sparse.counters.checkpoints_written \
            <= dense.counters.checkpoints_written

    @pytest.mark.parametrize("every", [0, -2])
    @pytest.mark.parametrize("make", [_greedy, _naive],
                             ids=["greedy", "naive"])
    def test_checkpoint_every_below_one_is_refused(self, problems, make,
                                                   every, tmp_path):
        """Refused by name, not clamped to 1 without a word."""
        with pytest.raises(ValueError,
                           match=f"checkpoint_every must be >= 1 "
                                 f"\\(got {every}\\)"):
            make(problems["dblp"], checkpoint=tmp_path,
                 checkpoint_every=every)
