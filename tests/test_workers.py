"""Work in forked worker processes gives what the in-process loop gives."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hwr import cli, dimred, features, forest, imaging, svm, synth, workers


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

    def test_workers_finish_their_jobs_after_one_raises(self, monkeypatch, tmp_path):
        """The pool is closed, not terminated, on an error.

        Terminating it killed workers still sending results, and a worker killed while
        it held the result queue's lock left the pool waiting for ever.
        """
        _cpus(monkeypatch, 2)

        def job(j):
            if j == 0:
                raise ValueError("first job")
            time.sleep(0.01)
            (tmp_path / str(j)).touch()

        with pytest.raises(ValueError, match="first job"):
            workers.map_jobs(job, range(12))
        assert sorted(int(path.name) for path in tmp_path.iterdir()) == list(range(1, 12))
        assert multiprocessing.active_children() == []


class TestMapRows:
    def test_rows_and_results_in_block_order(self, cpus):
        def fill(start, stop, rows):
            rows[:] = np.arange(start, stop)[:, None] * [1.0, -1.0]
            return start, os.getpid()

        n = 3 * workers.BLOCK + 1
        matrix, results = workers.map_rows(fill, n, 2)
        assert matrix.tolist() == [[i, -i] for i in range(n)]
        assert [start for start, _ in results] == [start for start, _ in workers.blocks(n)]
        assert (os.getpid() in {pid for _, pid in results}) == (cpus == 1)

    def test_one_block_runs_inline(self, monkeypatch):
        _cpus(monkeypatch, 2)
        _, pids = workers.map_rows(lambda *_: os.getpid(), workers.BLOCK, 1)
        assert pids == [os.getpid()]


_OPENBLAS = workers.openblas()


@pytest.mark.skipif(_OPENBLAS is None, reason="numpy's bundled OpenBLAS is not found")
def test_every_process_runs_one_blas_thread(monkeypatch):
    """Importing hwr overrides the thread count numpy loaded with, and forked workers
    inherit the pin: one BLAS thread, and no idle pool thread beside it."""
    src = Path(workers.__file__).resolve().parents[1]
    script = ("import numpy, hwr; "
              "print(hwr.workers.openblas().scipy_openblas_get_num_threads64_())")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="2"))
    assert proc.stdout.split() == ["1"]
    _cpus(monkeypatch, 2)
    threads = _OPENBLAS.scipy_openblas_get_num_threads64_
    assert threads() == 1
    seen = workers.map_jobs(lambda _: (os.getpid(), threads(), len(os.listdir("/proc/self/task"))),
                            range(8))
    assert os.getpid() not in {pid for pid, _, _ in seen}
    assert {(count, tasks) for _, count, tasks in seen} == {(1, 1)}


@pytest.mark.skipif(_OPENBLAS is None, reason="numpy's bundled OpenBLAS is not found")
def test_bytes_do_not_depend_on_the_blas_thread_count():
    """A PCA, its transform and an SVM trained on it, whose last bits once changed with
    OPENBLAS_NUM_THREADS, are the same under 1, 2 and no setting."""
    script = ("import hashlib, numpy as np; from hwr import dimred, svm; "
              "X = np.random.default_rng(0).normal(size=(300, 500)); "
              "pca = dimred.pca_fit(X, 20); Z = pca.transform(X); "
              "coef = svm.ovo_train(Z, np.arange(300) % 14 + 1, 1.0, 0.5).coef; "
              "print(hashlib.sha256(pca.components.tobytes() + Z.tobytes() + coef.tobytes())"
              ".hexdigest())")
    env = dict(os.environ, PYTHONPATH=str(Path(workers.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    digests = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, check=True, env=dict(env, **threads))
        digests.append(proc.stdout)
    assert digests[0] == digests[1] == digests[2]


def test_cold_predict_with_a_sparse_reducer_does_not_import_multiprocessing(tmp_path):
    """The single row of `hwr predict` stays in its process, so it never pays for a pool,
    and the sparse projection is a numpy matrix, so it never pays for importing scipy either."""
    dimred.rp_fit("sparse", 3780, 20, 3).save(tmp_path / "srp.json")
    gen = np.random.default_rng(0)
    y = np.arange(28) % 14 + 1
    forest.rf_train(gen.normal(size=(28, 20)), y, m=3, seed=0).save(tmp_path / "rf.json")
    image = tmp_path / "word.pgm"
    imaging.write_pgm(image, synth.render_word(3, synth.SynthSpec(1, 0), 0))
    argv = ["predict", "--image", str(image), "--reducer", str(tmp_path / "srp.json"),
            "--model", str(tmp_path / "rf.json")]
    script = ("import sys; from hwr import cli; code = cli.main(sys.argv[1:]); "
              "assert 'multiprocessing' not in sys.modules; "
              "assert not [name for name in sys.modules if name.split('.')[0] == 'scipy']; "
              "sys.exit(code)")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert 1 <= int(proc.stdout) <= 14


class TestImageStages:
    @pytest.mark.parametrize("seed", ["42", "7"])
    def test_cli_files_and_output_equal_for_any_cpu_count(self, monkeypatch, capsys, tmp_path,
                                                          seed):
        """synth, features with and without scalars, and an srp reduce of more than one block."""
        monkeypatch.setenv("HWR_SEED", seed)
        per_class = workers.BLOCK // 14 + 1
        commands = [
            ["synth", "--out", "imgs", "--per-class", str(per_class)],
            ["features", "--manifest", "imgs/manifest.csv", "--out", "f.fmx"],
            ["features", "--manifest", "imgs/manifest.csv", "--out", "s.fmx", "--scalars"],
            ["reduce", "--in", "f.fmx", "--method", "srp", "--dim", "60", "--model", "srp.json",
             "--out", "r.fmx"],
        ]
        runs = []
        for count in (1, 2):
            _cpus(monkeypatch, count)
            (tmp_path / str(count)).mkdir()
            monkeypatch.chdir(tmp_path / str(count))
            printed = []
            for argv in commands:
                assert cli.main(argv) == 0
                printed.append(capsys.readouterr())
            assert multiprocessing.active_children() == []
            files = {str(f.relative_to(Path.cwd())): f.read_bytes()
                     for f in sorted(Path.cwd().rglob("*")) if f.is_file()}
            runs.append((printed, files))
        assert len(runs[0][1]) == 14 * per_class + 1 + 2 + 2 + 2
        assert runs[0] == runs[1]

    def test_features_equal_when_each_worker_fills_its_own_caches(self, monkeypatch, tmp_path):
        """`hwr features` from empty caches: inline, and in two workers that leave this
        process's caches empty."""
        synth.synth_generate(synth.SynthSpec(per_class=workers.BLOCK // 14 + 1, seed=3), tmp_path)
        caches = (features._layout, imaging._resample_taps)
        written = []
        for count in (1, 2):
            _cpus(monkeypatch, count)
            for cache in caches:
                cache.cache_clear()
            out = tmp_path / f"f{count}.fmx"
            assert cli.main(["features", "--manifest", str(tmp_path / "manifest.csv"),
                             "--out", str(out)]) == 0
            filled = [cache.cache_info().currsize > 0 for cache in caches]
            assert filled == [count == 1] * 2
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("rows", [1, workers.BLOCK - 1, workers.BLOCK, workers.BLOCK + 1,
                                      2 * workers.BLOCK + 2])
    @pytest.mark.parametrize("method", ["pca", "grp", "srp"])
    def test_a_reduced_row_has_the_bits_of_that_row_alone(self, cpus, method, rows):
        """Each row of a batch transform equals the transform of the row by itself, whether
        the row is a view into the batch or a copy, so `predict` reduces as `reduce` does."""
        gen = np.random.default_rng(rows)
        X = gen.normal(size=(rows + 1, 300))[1:]  # rows that start at an odd row offset
        X[gen.random(X.shape) < 0.3] = -0.0
        X[0] = -0.0
        reducer = {"pca": lambda: dimred.pca_fit(gen.normal(size=(80, 300)), 40),
                   "grp": lambda: dimred.rp_fit("gaussian", 300, 40, 5),
                   "srp": lambda: dimred.rp_fit("sparse", 300, 40, 5)}[method]()
        reduced = reducer.transform(X)
        assert reduced.shape == (rows, 40)
        for i, row in enumerate(reduced):
            assert reducer.transform(X[i:i + 1]).tobytes() == row.tobytes()
            assert reducer.transform(X[i].copy()[None]).tobytes() == row.tobytes()


def _forest_data():
    """The data of test_forest.py::TestFlatWalk."""
    gen = np.random.default_rng(12)
    y = gen.integers(1, 6, size=40)
    return gen.normal(size=(5, 6))[y - 1] + gen.normal(size=(40, 6)), y


class TestForest:
    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("m", (50, 100, 2000))
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

    @pytest.mark.parametrize("bad", [0, 15])
    def test_bad_labels_raise_before_any_worker_starts(self, monkeypatch, bad):
        X, y = _forest_data()

        def no_workers(*args):
            raise AssertionError("map_jobs was called")

        monkeypatch.setattr(workers, "map_jobs", no_workers)
        with pytest.raises(ValueError, match=r"labels must lie in \[1, 14\]"):
            forest.rf_train(X, np.where(y == 3, bad, y), m=6, seed=1)


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
