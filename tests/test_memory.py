"""Memory regression: a reader, a draw or a reduce holds about one matrix.

numpy reports its buffers to tracemalloc, so the traced peak of a call bounds
what it held at once.  A reader or a draw may peak at 1.5 times the bytes of
the array it returns: the array itself plus working buffers of a fixed size.
The PCA reduce may allocate 1.5 times the bytes of the feature matrix it is
given: the SVD's VT, of the matrix's size, and the k components, but no
centered copy.  LAPACK's own workspace is outside numpy and not traced.
The grp and srp reduces hold the feature matrix, the output and a drawn
block of projection rows, never the whole projection.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from hwr import cli, dataset, dimred, workers

BOUND = 1.5


def _peak_and_result(call):
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_read_fmx_holds_one_matrix(tmp_path):
    path = tmp_path / "x.fmx"
    dataset.write_fmx(np.random.default_rng(0).normal(size=(100, 3780)), path)
    peak, matrix = _peak_and_result(lambda: dataset.read_fmx(path))
    assert matrix.shape == (100, 3780)
    assert peak < BOUND * matrix.nbytes, f"peak {peak} for {matrix.nbytes} bytes"


@pytest.mark.parametrize("kind", ["sparse", "gaussian"])
def test_rp_fit_holds_one_matrix(kind):
    peak, model = _peak_and_result(lambda: dimred.rp_fit(kind, 3780, 200, seed=42))
    assert model.matrix.shape == (200, 3780)
    assert peak < BOUND * model.matrix.nbytes, f"peak {peak} for {model.matrix.nbytes} bytes"


def test_pca_reduce_holds_one_feature_matrix(capsys, monkeypatch, tmp_path):
    X = np.random.default_rng(42).normal(size=(400, 3780))
    monkeypatch.setattr(dataset, "read_fmx", lambda path: X)
    peak, code = _peak_and_result(lambda: cli.main([
        "reduce", "--in", "x.fmx", "--method", "pca", "--dim", "50",
        "--model", str(tmp_path / "pca.json"), "--out", str(tmp_path / "r.fmx")]))
    assert code == 0, capsys.readouterr().err
    assert peak < BOUND * X.nbytes, f"peak {peak} for {X.nbytes} bytes"


@pytest.mark.parametrize("method", ["grp", "srp"])
def test_projection_reduce_holds_no_projection_matrix(capsys, monkeypatch, tmp_path, method):
    """On one CPU, so that every block is drawn in this traced process, the reduce peaks
    below the features, the output and two blocks of projection rows: the block drawn and
    the draw's working buffers, which are smaller.  The 200 x 3780 projection alone would
    take more than three blocks."""
    n, d, k = 100, 3780, 200
    dataset.write_fmx(np.random.default_rng(42).normal(size=(n, d)), tmp_path / "x.fmx")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    peak, code = _peak_and_result(lambda: cli.main([
        "reduce", "--in", str(tmp_path / "x.fmx"), "--method", method, "--dim", str(k),
        "--model", str(tmp_path / "rp.json"), "--out", str(tmp_path / "r.fmx")]))
    assert code == 0, capsys.readouterr().err
    bound = 8 * (n * d + n * k + 2 * workers.BLOCK * d)
    assert peak < bound, f"peak {peak} for a bound of {bound} bytes"


def test_pca_fit_leaves_its_matrix():
    X = np.random.default_rng(42).normal(size=(100, 300))
    before = X.tobytes()
    dimred.pca_fit(X, 50)
    assert X.tobytes() == before
