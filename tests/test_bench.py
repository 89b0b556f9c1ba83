"""Micro-benchmarks of hot layers (pytest-benchmark).

Tier-1 runs each body once, untimed (``--benchmark-disable`` in the pytest
options); time them with ``pytest --benchmark-enable -k bench``.
"""

from __future__ import annotations

import numpy as np

from hwr import dataset, dimred, forest


def test_bench_grow_tree(benchmark):
    """One tree of the srp733 workload's shape: 588 bootstrap rows, 733 columns."""
    gen = np.random.default_rng(42)
    y = gen.integers(1, 15, size=588)
    X = gen.normal(size=(14, 733))[y - 1] + gen.normal(scale=2.0, size=(588, 733))
    tree = benchmark(forest.grow_tree, X, y, tree_seed=[42, 0, 1])
    assert not tree.is_leaf


def test_bench_write_model(benchmark, tmp_path):
    """A ~5 MB model document: one base64 payload, as in svm.json."""
    doc = {"format": "hwr-bench/1",
           "values": dataset.pack(np.random.default_rng(42).normal(size=480_000))}
    path = tmp_path / "model.json"
    benchmark(dataset.write_model, path, doc)
    assert path.stat().st_size > 4_000_000


def test_bench_read_model(benchmark, tmp_path):
    """A ~5 MB pca.json: 120 components over the 3780 HOG columns."""
    gen = np.random.default_rng(42)
    model = dimred.PcaModel(mean=gen.normal(size=3780), components=gen.normal(size=(120, 3780)),
                            explained_variance=gen.random(120))
    path = tmp_path / "pca.json"
    model.save(path)
    assert path.stat().st_size > 4_000_000
    loaded = benchmark(dimred.PcaModel.load, path)
    assert loaded.components.tobytes() == model.components.tobytes()
