"""Memory regression: a reader or a draw holds little beyond the array it returns.

numpy reports its buffers to tracemalloc, so the traced peak of a call bounds
what it held at once.  Each call below may peak at 1.5 times the bytes of the
array it returns: the array itself plus working buffers of a fixed size.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from hwr import dataset, dimred

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
