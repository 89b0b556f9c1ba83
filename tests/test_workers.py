"""Training in forked worker processes gives what the in-process loop gives."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from hwr import forest, svm, workers


def _cpus(monkeypatch, count: int) -> None:
    """Make this process see ``count`` CPUs, so map_jobs runs ``count`` workers at most."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture(params=[1, 2], ids=["inline", "forked"])
def cpus(request, monkeypatch) -> int:
    _cpus(monkeypatch, request.param)
    return request.param


class TestMapJobs:
    def test_results_in_job_order(self, cpus):
        assert workers.map_jobs(lambda j: j * j, range(20)) == [j * j for j in range(20)]
        assert workers.map_jobs(len, (np.ones(j) for j in range(5))) == [0, 1, 2, 3, 4]
        assert workers.map_jobs(len, []) == []

    def test_one_cpu_runs_inline_and_two_fork(self, cpus):
        pids = set(workers.map_jobs(lambda _: os.getpid(), range(8)))
        if cpus == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids

    def test_one_job_runs_inline(self, monkeypatch):
        _cpus(monkeypatch, 2)
        assert workers.map_jobs(lambda _: os.getpid(), [0]) == [os.getpid()]

    def test_workers_see_patched_attributes(self, cpus, monkeypatch):
        monkeypatch.setattr(svm, "FOLDS", 7)
        assert workers.map_jobs(lambda _: svm.FOLDS, range(4)) == [7] * 4

    @pytest.mark.parametrize("error", [ValueError("bad job"), svm.ConvergenceError("stalled"),
                                       KeyError("missing")])
    def test_job_error_keeps_its_type(self, cpus, error):
        def job(j):
            if j == 5:
                raise error
            return j

        with pytest.raises(type(error), match=str(error.args[0])):
            workers.map_jobs(job, range(12))
        assert multiprocessing.active_children() == []


def _forest_data():
    """The data of test_forest.py::TestFlatWalk."""
    gen = np.random.default_rng(12)
    y = gen.integers(1, 6, size=40)
    return gen.normal(size=(5, 6))[y - 1] + gen.normal(size=(40, 6)), y


class TestForest:
    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("m", forest.DEFAULT_TREE_COUNTS)
    def test_rf_json_equal_for_any_cpu_count(self, monkeypatch, tmp_path, m, seed):
        X, y = _forest_data()
        rows = 20 if m == 2000 else 40  # 20 rows keep the 2000-tree forests quick to grow
        saved = []
        for count in (1, 2):
            _cpus(monkeypatch, count)
            path = tmp_path / f"rf{count}.json"
            forest.rf_train(X[:rows], y[:rows], m=m, seed=seed).save(path)
            saved.append(path.read_bytes())
            assert multiprocessing.active_children() == []
        assert saved[0] == saved[1]

    def test_trees_equal_grow_tree(self, cpus):
        X, y = _forest_data()
        model = forest.rf_train(X, y, m=4, seed=3)
        for b, tree in enumerate(model.trees):
            boot = forest.bootstrap_indices(3, b, len(y))
            grown = forest.grow_tree(X[boot], y[boot], [3, b, 1])
            expected = forest.ForestModel.from_preorder(*grown, d=6, seed=3)
            built = forest.ForestModel(trees=[tree], d=6, seed=3)
            for name in ("feature", "threshold", "counts"):
                assert getattr(built, name).tobytes() == getattr(expected, name).tobytes()

    def test_bad_labels_raise_from_a_worker(self, cpus):
        X, y = _forest_data()
        with pytest.raises(ValueError, match="labels must lie in"):
            forest.rf_train(X, np.where(y == 3, 15, y), m=6, seed=1)
        assert multiprocessing.active_children() == []


class TestGridSearch:
    def test_table_choice_and_svm_json_equal_for_any_cpu_count(
            self, monkeypatch, tmp_path, small_features):
        X, labels = small_features
        X = X[:, :40]
        results, saved = [], []
        for count in (1, 2):
            _cpus(monkeypatch, count)
            result = svm.grid_search(X, labels, seed=0)
            assert multiprocessing.active_children() == []
            path = tmp_path / f"svm{count}.json"
            svm.ovo_train(X, labels, result.c, result.gamma).save(path)
            results.append(result)
            saved.append(path.read_bytes())
        assert results[0] == results[1]
        assert saved[0] == saved[1]

    # an infinite C fails in the solver, an infinite gamma while the Gram matrices are made
    @pytest.mark.parametrize("name", ["C", "gamma"])
    def test_error_in_a_batch_reaches_the_caller(self, cpus, monkeypatch, small_features, name):
        X, labels = small_features
        monkeypatch.setattr(svm, f"DEFAULT_{name.upper()}_VALUES", (1.0, float("inf")))
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            svm.grid_search(X[:, :10], labels, seed=0)
        assert multiprocessing.active_children() == []
