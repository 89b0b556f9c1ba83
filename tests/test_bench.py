"""Micro-benchmarks of hot layers (pytest-benchmark).

Tier-1 runs each body once, untimed (``--benchmark-disable`` in the pytest
options); time them with ``pytest --benchmark-enable -k bench``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from hwr import cli, dataset, dimred, features, forest, imaging, svm, synth


def test_bench_render_word(benchmark):
    """One synthetic word, as `hwr synth` draws each of its 784 images at --per-class 56."""
    spec = synth.SynthSpec(per_class=56, seed=42)
    assert benchmark(synth.render_word, 5, spec, 3).shape == synth.CANVAS


def test_bench_hog(benchmark, small_synth):
    """One canonical 64x128 word raster, as every classify request computes."""
    img = imaging.preprocess(imaging.read_pgm(small_synth.paths()[0])).image
    assert benchmark(features.hog, img).shape == (3780,)


def test_bench_hog_noise(benchmark):
    """The worst case: a uniform-noise 64x128 raster, where every pixel votes."""
    img = np.random.default_rng(42).integers(0, 256, size=(64, 128), dtype=np.uint8)
    assert benchmark(features.hog, img).shape == (3780,)


def test_bench_preprocess(benchmark, small_synth):
    """One raw synthetic word to its canonical raster and cut ink mask."""
    img = imaging.read_pgm(small_synth.paths()[0])
    assert benchmark(imaging.preprocess, img).image.shape == (64, 128)


def test_bench_extract_word_features(benchmark, small_synth):
    """The whole chain on one raw synthetic word: preprocess, then HOG."""
    img = imaging.read_pgm(small_synth.paths()[0])
    assert benchmark(features.extract_word_features, img).shape == (3780,)


def test_bench_features_stage(benchmark, tmp_path):
    """`hwr features` on 98 synthetic words: read, preprocess and HOG in blocks of rows."""
    synth.synth_generate(synth.SynthSpec(per_class=7, seed=42), tmp_path / "imgs")
    argv = ["features", "--manifest", str(tmp_path / "imgs" / "manifest.csv"),
            "--out", str(tmp_path / "f.fmx")]
    assert benchmark(cli.main, argv) == 0
    assert dataset.read_fmx(tmp_path / "f.fmx").shape == (98, 3780)


def test_bench_srp_project(benchmark):
    """The srp733 workload's projection: 736 HOG-sized rows to 733 columns."""
    gen = np.random.default_rng(42)
    X = gen.random(size=(736, 3780))
    P = dimred.rp_fit("sparse", 3780, 733, 42)
    assert benchmark(dimred.project, P, X).shape == (736, 733)


def test_bench_rp_fit(benchmark):
    """The srp733 projection's redraw, which every cold `hwr predict` behind srp.json pays."""
    P = benchmark(dimred.rp_fit, "sparse", 3780, 733, 42)
    assert (P.d, P.k) == (3780, 733)


def test_bench_grow_tree(benchmark):
    """One tree of the srp733 workload's shape: 588 bootstrap rows, 733 columns."""
    gen = np.random.default_rng(42)
    y = gen.integers(1, 15, size=588)
    X = gen.normal(size=(14, 733))[y - 1] + gen.normal(scale=2.0, size=(588, 733))
    feature, _, _ = benchmark(forest.grow_tree, X, y, tree_seed=[42, 0, 1])
    assert feature[0] >= 0  # the root splits


def _pca_like(rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 100-column rows around 14 class centres, as separable as pca100's."""
    gen = np.random.default_rng(42)
    y = gen.integers(1, 15, size=rows)
    return gen.normal(size=(14, 100))[y - 1] + gen.normal(scale=0.5, size=(rows, 100)), y


def test_bench_rf_train(benchmark):
    """The pca100 workload's forest: 100 trees of about 60 nodes on 588 rows."""
    X, y = _pca_like(588)
    model = benchmark(forest.rf_train, X, y, m=100, seed=42)
    assert model.m == 100 and model.depth > 1


def test_bench_grid_search(benchmark):
    """The pca100 workload's grid: 25 (C, gamma) cells over 3 folds of 588 rows."""
    X, y = _pca_like(588)
    result = benchmark(svm.grid_search, X, y, seed=42)
    assert len(result.table) == 25 and result.accuracy > 0.9


def test_bench_smo(benchmark):
    """One grid batch, solved and built: 91 pairs of a 392-row fold at the 5 C values."""
    X, y = _pca_like(392)
    models = benchmark(svm._ovo_models, X, y, list(svm.DEFAULT_C_VALUES), 2.0**-7)
    assert [len(model.pairs) for model in models] == [91] * 5


def test_bench_rbf(benchmark):
    """One classify request's kernel block: 1 row against 300 support vectors of 100."""
    gen = np.random.default_rng(42)
    sv, x = gen.normal(size=(300, 100)), gen.normal(size=(1, 100))
    block = benchmark(svm._rbf, sv, (sv * sv).sum(axis=1), x, 2.0**-7)
    assert block.shape == (300, 1)


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


@pytest.mark.parametrize("rows", [1, 148])
def test_bench_svm_predict(benchmark, rows):
    """The srp733 svm.json's shape: 91 machines over 471 distinct support vectors."""
    gen = np.random.default_rng(42)
    pool = gen.normal(size=(471, 733))
    owner = np.arange(471) % 14 + 1  # the class each support vector belongs to
    pairs = list(itertools.combinations(range(1, 15), 2))
    coef = np.zeros((91, 471))
    for k, (a, b) in enumerate(pairs):
        used = np.flatnonzero(((owner == a) | (owner == b)) & (gen.random(471) < 0.55))
        coef[k, used] = gen.normal(size=len(used))
    model = svm.SvmModel(list(range(1, 15)), pairs, pool, coef, gen.normal(size=91), c=0.5,
                         gamma=2.0**-9, passes=np.zeros(91, dtype=np.int64))
    X = gen.normal(size=(rows, 733))
    assert benchmark(model.predict_batch, X).shape == (rows,)


def _random_tree(gen: np.random.Generator, d: int, splits: int) -> forest.TreeNode:
    """A tree made by splitting a uniformly drawn leaf `splits` times."""
    root = forest.TreeNode()
    leaves = [root]
    for _ in range(splits):
        node = leaves.pop(gen.integers(len(leaves)))
        node.feature, node.threshold = int(gen.integers(d)), float(gen.normal())
        node.left, node.right = forest.TreeNode(), forest.TreeNode()
        leaves += [node.left, node.right]
    for leaf in leaves:
        leaf.counts = gen.integers(0, 4, size=14) + (np.arange(14) == gen.integers(14))
    return root


@pytest.mark.parametrize("rows", [1, 148])
def test_bench_forest_predict(benchmark, rows):
    """The srp733 rf.json's shape: 100 trees of about 60 nodes over 733 columns."""
    gen = np.random.default_rng(42)
    model = forest.ForestModel(trees=[_random_tree(gen, 733, 30) for _ in range(100)],
                               d=733, seed=42)
    assert model.feature.shape == (6100,)
    X = gen.normal(size=(rows, 733))
    assert benchmark(model.predict_batch, X).shape == (rows,)
