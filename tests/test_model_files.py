"""Model files: the on-disk layout of each kind, decode failures, benchmark hooks."""

from __future__ import annotations

import base64
import contextlib
import functools
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sparse_projection

from hwr import cli, dataset, dimred, forest, imaging, mlp, svm, synth
from hwr.dataset import ModelFileError
from hwr.dimred import PcaModel, ProjectionMatrix
from hwr.forest import ForestModel
from hwr.mlp import MlpModel
from hwr.svm import SvmModel

# Key order of each model document, "format" first.
LAYOUT = {
    "hwr-pca/2": ["format", "d", "k", "mean", "components", "explained_variance"],
    "hwr-rp/2 gaussian": ["format", "kind", "generator", "seed", "d", "k"],
    "hwr-rp/2 sparse": ["format", "kind", "generator", "seed", "d", "k"],
    "hwr-mlp/2": ["format", "m", "h", "o", "w1", "b1", "w2", "b2"],
    "hwr-svm/3": ["format", "classes", "c", "gamma", "kernel", "pairs", "n_support", "dim",
                  "support_vectors", "coef", "bias"],
    "hwr-rf/2": ["format", "d", "seed", "n_classes", "feature", "threshold", "counts"],
}


def _blobs():
    gen = np.random.default_rng(3)
    centers = [(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0)]
    X = np.vstack([gen.normal(c, 0.5, (6, 3)) for c in centers])
    return X, np.repeat([1, 2, 3], 6)


def _tiny_model(layout: str):
    X, y = _blobs()
    return {
        "hwr-pca/2": lambda: dimred.pca_fit(X, 2),
        "hwr-rp/2 gaussian": lambda: dimred.rp_fit("gaussian", 3, 2, seed=1),
        "hwr-rp/2 sparse": lambda: dimred.rp_fit("sparse", 3, 2, seed=1),
        "hwr-mlp/2": lambda: mlp.train(mlp.mlp_init(3, 4, 14, seed=0), X, y,
                                       mlp.TrainConfig(epochs=2, seed=0)),
        "hwr-svm/3": lambda: svm.ovo_train(X, y, c=1.0, gamma=0.5),
        "hwr-rf/2": lambda: forest.rf_train(X, y, m=2, seed=0),
    }[layout]()


@pytest.mark.parametrize("layout", sorted(LAYOUT))
def test_layout_and_byte_stable_round_trip(layout, tmp_path):
    model = _tiny_model(layout)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    model.save(first)
    doc = json.loads(first.read_text(encoding="utf-8"))
    assert list(doc) == LAYOUT[layout]
    assert doc["format"] == type(model).FORMAT == layout.split()[0]
    type(model).load(first).save(second)
    assert second.read_bytes() == first.read_bytes()


def _arrays(model) -> dict[str, np.ndarray]:
    """Every array a model saves, by name."""
    if isinstance(model, SvmModel):
        return {"support_vectors": model.sv, "coef": model.coef, "bias": model.bias}
    if isinstance(model, ProjectionMatrix):
        if model.kind == "sparse":
            oracle = sparse_projection(model.d, model.k, model.seed).toarray()
            assert model.matrix.tobytes() == oracle.tobytes()
        return {"matrix": model.matrix}
    return {name: value for name, value in vars(model).items() if isinstance(value, np.ndarray)}


@pytest.mark.parametrize("classes", [(1, 14), (2, 9, 14), (1, 13, 14)])
@pytest.mark.parametrize("layout", ["hwr-mlp/2", "hwr-svm/3", "hwr-rf/2"])
def test_trained_on_any_classes_loads_back(layout, classes, tmp_path):
    """A model trained on any classes in 1..14, 1 and 14 included, loads back and
    predicts what it predicted before it was saved."""
    X, y = _blobs()
    keep = y <= len(classes)
    X, y = X[keep], np.asarray(classes)[y[keep] - 1]
    model = {
        "hwr-mlp/2": lambda: mlp.train(mlp.mlp_init(3, 4, 14, seed=0), X, y,
                                       mlp.TrainConfig(epochs=20, seed=0)),
        "hwr-svm/3": lambda: svm.ovo_train(X, y, c=1.0, gamma=0.5),
        "hwr-rf/2": lambda: forest.rf_train(X, y, m=3, seed=0),
    }[layout]()
    model.save(tmp_path / "model.json")
    loaded = cli.load_classifier(tmp_path / "model.json")
    assert type(loaded) is type(model)
    assert np.array_equal(loaded.predict_batch(X), model.predict_batch(X))


@pytest.mark.parametrize("layout", sorted(LAYOUT))
def test_saved_arrays_load_bit_equal(layout, tmp_path):
    model = _tiny_model(layout)
    model.save(tmp_path / "model.json")
    loaded = type(model).load(tmp_path / "model.json")
    saved, back = _arrays(model), _arrays(loaded)
    assert saved and list(back) == list(saved)
    for name, array in saved.items():
        assert back[name].dtype == array.dtype and back[name].shape == array.shape, name
        assert array.dtype == np.float64 or isinstance(model, ForestModel), name
        assert back[name].tobytes() == array.tobytes(), name
        assert back[name].flags.writeable, name
    if isinstance(model, ProjectionMatrix):
        assert type(loaded.matrix) is type(model.matrix)


# The smallest document of each kind's first version, each of which loaded
# before the array fields became base64 payloads or, for hwr-rf/1, before a
# forest became its preorder lists, and of hwr-svm/2, which loaded before the
# machines shared one support-vector matrix.
VERSION_1 = [
    (PcaModel, {"format": "hwr-pca/1", "d": 1, "k": 1, "mean": [0.0], "components": [1.0],
                "explained_variance": [1.0]}),
    (ProjectionMatrix, {"format": "hwr-rp/1", "kind": "gaussian", "generator": "splitmix64",
                        "seed": 1, "d": 1, "k": 1, "values": [0.5]}),
    (MlpModel, {"format": "hwr-mlp/1", "m": 1, "h": 1, "o": 1, "w1": [0.5], "b1": [0.0],
                "w2": [1.0], "b2": [0.0]}),
    (SvmModel, {"format": "hwr-svm/1", "classes": [1, 2], "c": 1.0, "gamma": 1.0,
                "kernel": "rbf", "machines": [{"pair": [1, 2], "support_vectors": [0.0],
                                               "n_support": 1, "dim": 1, "dual_coef": [1.0],
                                               "bias": 0.0}]}),
    (SvmModel, {"format": "hwr-svm/2", "classes": [1, 2], "c": 1.0, "gamma": 1.0,
                "kernel": "rbf", "machines": [{"pair": [1, 2],
                                               "support_vectors": dataset.pack([0.0]),
                                               "n_support": 1, "dim": 1,
                                               "dual_coef": dataset.pack([1.0]),
                                               "bias": 0.0}]}),
    (ForestModel, {"format": "hwr-rf/1", "d": 1, "seed": 0, "n_classes": 14,
                   "trees": [{"counts": [1] + [0] * 13}]}),
]


@pytest.mark.parametrize("cls, doc", [pytest.param(cls, doc, id=doc["format"])
                                      for cls, doc in VERSION_1])
def test_version_1_file_refused(cls, doc, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError) as info:
        cls.load(path)
    assert str(info.value).startswith(f"{path}: format {doc['format']!r} is not {cls.FORMAT}; ")


LOADERS = [
    pytest.param(cls.load, cls.FORMAT, id=f"{cls.__name__}.load")
    for cls in (PcaModel, ProjectionMatrix, MlpModel, SvmModel, ForestModel)
] + [
    pytest.param(dimred.load_reducer, PcaModel.FORMAT, id="load_reducer"),
    pytest.param(cli.load_classifier, SvmModel.FORMAT, id="load_classifier"),
]

BAD_FILES = {
    "non-object": lambda tag: b"[1, 2]",
    "truncated": lambda tag: f'{{"format": "{tag}", "d": 3, "values": [0.5, 1'.encode(),
    "tag-only": lambda tag: f'{{"format": "{tag}"}}'.encode(),
    "non-utf8": lambda tag: f'{{"format": "{tag}", "kind": "'.encode() + b'\xff\xfe"}',
}


@pytest.mark.parametrize("bad", sorted(BAD_FILES))
@pytest.mark.parametrize("loader, tag", LOADERS)
def test_malformed_file_raises_model_file_error(loader, tag, bad, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(BAD_FILES[bad](tag))
    with pytest.raises(ModelFileError) as info:
        loader(path)
    assert str(info.value).startswith(f"{path}: ")


def test_recursion_while_building_raises_model_file_error(tmp_path):
    class Endless:
        FORMAT = "hwr-endless/1"

        @classmethod
        def from_doc(cls, doc):
            return cls.from_doc(doc)

    path = tmp_path / "model.json"
    path.write_text('{"format": "hwr-endless/1"}', encoding="utf-8")
    with pytest.raises(ModelFileError, match="RecursionError") as info:
        dataset.read_model(path, Endless)
    assert str(info.value).startswith(f"{path}: ")


def _first_split(doc: dict, **fields) -> None:
    """Set fields of the first split of a saved forest: its feature or threshold."""
    i = next(i for i, f in enumerate(doc["feature"]) if f != -1)
    for name, value in fields.items():
        doc[name][i] = value


def _first_leaf(doc: dict, counts: list) -> None:
    """Set the class counts of a saved forest's first leaf."""
    doc["counts"][:14] = counts


def _one_short(record: dict, field: str) -> None:
    """Drop the last float of a base64 payload."""
    record[field] = base64.b64encode(base64.b64decode(record[field])[:-8]).decode()


def _three_classes(doc: dict) -> None:
    """Make a saved forest of the blobs' classes 1-3 a 3-class forest."""
    doc.update(n_classes=3, counts=[c for i, c in enumerate(doc["counts"]) if i % 14 < 3])


def _first_count(doc: dict, value) -> None:
    """Set the first class count of a saved forest's first leaf."""
    doc["counts"][0] = value


def _mlp_outputs(doc: dict, o: int) -> None:
    """Give an mlp file o output units, with payloads of their shape."""
    doc.update(o=o, w2=dataset.pack(np.zeros((o, doc["h"]))), b2=dataset.pack(np.arange(o)))


def _svm_class_3_as(doc: dict, cid: int) -> None:
    """Rename class 3 of the tiny svm file, in its classes and its pairs."""
    doc["classes"] = [cid if c == 3 else c for c in doc["classes"]]
    doc["pairs"] = [[cid if c == 3 else c for c in pair] for pair in doc["pairs"]]


def _coef_of_shape(doc: dict, rows: int, cols: int) -> None:
    """Replace an svm file's coefficients by zeros of another shape."""
    doc["coef"] = dataset.pack(np.zeros((rows, cols)))


def _first_pairs(doc: dict, keep: int, classes: list[int] | None = None) -> None:
    """Keep an svm file's first pairs, with their coefficient rows and biases."""
    doc["pairs"] = doc["pairs"][:keep]
    coef = np.frombuffer(base64.b64decode(doc["coef"])).reshape(-1, doc["n_support"])
    doc["coef"] = dataset.pack(coef[:keep])
    doc["bias"] = dataset.pack(np.frombuffer(base64.b64decode(doc["bias"]))[:keep])
    if classes is not None:
        doc["classes"] = classes


# Each edit makes a saved model disagree with itself or with the format: a
# payload one float shorter than its stated shape (pca d and k, mlp h and o,
# svm n_support, dim and pairs), svm coefficients with a row more than there
# are pairs or a column more than n_support, an svm pair that is not two
# classes a < b of the model or that is listed twice, a payload that is not
# base64 or is a list of floats, a projection from another generator, of an
# unknown kind or too large for any address space (10**14 entries), a
# kernel other than rbf, svm pairs that leave out a pair of its classes or
# none at all, an svm of one class, of a class listed twice or of a class
# outside 1..14, an mlp whose outputs are not the 14 classes, a header field
# that is not an integer (a float, a string or a bool, even one equal to an
# integer), an svm C or gamma that is not a finite positive number, a forest leaf
# that is not 14 non-negative integer counts with a positive sum, forest counts
# that are not a list, a forest split on a feature that is not an integer in
# [0, d) or at a threshold that is not a finite number, a forest of other than
# 14 classes, a number too large to convert, a forest without trees, and
# forest lists that disagree: a preorder that ends inside a tree, more rows of
# counts than leaves, or fewer thresholds than nodes (the tiny forest has
# d = 3, the tiny svm classes 1, 2 and 3).  The pair and class edits keep the
# coefficient and bias payloads consistent with the pairs left.
INCONSISTENT = {
    "pca-mean": ("hwr-pca/2", lambda doc: _one_short(doc, "mean")),
    "pca-explained_variance": ("hwr-pca/2", lambda doc: _one_short(doc, "explained_variance")),
    "mlp-b1": ("hwr-mlp/2", lambda doc: _one_short(doc, "b1")),
    "mlp-b2": ("hwr-mlp/2", lambda doc: _one_short(doc, "b2")),
    "svm-dual_coef": ("hwr-svm/3", lambda doc: _one_short(doc, "coef")),
    "svm-support_vectors": ("hwr-svm/3", lambda doc: _one_short(doc, "support_vectors")),
    "svm-bias": ("hwr-svm/3", lambda doc: _one_short(doc, "bias")),
    "svm-coef-rows": ("hwr-svm/3", lambda doc: _coef_of_shape(
        doc, len(doc["pairs"]) + 1, doc["n_support"])),
    "svm-coef-columns": ("hwr-svm/3", lambda doc: _coef_of_shape(
        doc, len(doc["pairs"]), doc["n_support"] + 1)),
    "svm-pair-reversed": ("hwr-svm/3", lambda doc: doc["pairs"][0].reverse()),
    "svm-pair-equal": ("hwr-svm/3", lambda doc: doc["pairs"][0].__setitem__(1, 1)),
    "svm-pair-unknown-class": ("hwr-svm/3", lambda doc: doc["pairs"][0].__setitem__(1, 4)),
    "svm-pair-twice": ("hwr-svm/3", lambda doc: doc["pairs"].__setitem__(1, [1, 2])),
    "pca-not-base64": ("hwr-pca/2", lambda doc: doc.update(components="not base64!")),
    "svm-list-payload": ("hwr-svm/3", lambda doc: doc.update(
        support_vectors=np.frombuffer(base64.b64decode(doc["support_vectors"])).tolist())),
    "rp-generator": ("hwr-rp/2 sparse", lambda doc: doc.update(generator="pcg64")),
    "rp-kind": ("hwr-rp/2 gaussian", lambda doc: doc.update(kind="foo")),
    "rp-too-large": ("hwr-rp/2 gaussian", lambda doc: doc.update(d=10**7, k=10**7)),
    "rp-too-large-sparse": ("hwr-rp/2 sparse", lambda doc: doc.update(d=10**7, k=10**7)),
    "svm-poly-kernel": ("hwr-svm/3", lambda doc: doc.update(kernel="poly")),
    "svm-pair-missing": ("hwr-svm/3", lambda doc: _first_pairs(doc, 2)),
    "svm-no-pairs": ("hwr-svm/3", lambda doc: _first_pairs(doc, 0)),
    "svm-one-class": ("hwr-svm/3", lambda doc: _first_pairs(doc, 0, classes=[2])),
    "svm-class-twice": ("hwr-svm/3", lambda doc: _first_pairs(doc, 1, classes=[1, 2, 2])),
    "rf-leaf-short": ("hwr-rf/2", lambda doc: doc["counts"].pop(13)),
    "rf-leaf-negative": ("hwr-rf/2", lambda doc: _first_leaf(doc, [-1, 2] + [0] * 12)),
    "rf-leaf-zero-sum": ("hwr-rf/2", lambda doc: _first_leaf(doc, [0] * 14)),
    "rf-feature-d": ("hwr-rf/2", lambda doc: _first_split(doc, feature=3)),
    "rf-feature-negative": ("hwr-rf/2", lambda doc: _first_split(doc, feature=-2)),
    "rf-threshold-nan": ("hwr-rf/2", lambda doc: _first_split(doc, threshold=float("nan"))),
    "rf-threshold-inf": ("hwr-rf/2", lambda doc: _first_split(doc, threshold=float("-inf"))),
    "rf-no-trees": ("hwr-rf/2", lambda doc: doc.update(feature=[], threshold=[], counts=[])),
    "rf-feature-float": ("hwr-rf/2", lambda doc: _first_split(doc, feature=0.9)),
    "rf-feature-string": ("hwr-rf/2", lambda doc: _first_split(doc, feature="1")),
    "rf-feature-bool": ("hwr-rf/2", lambda doc: _first_split(doc, feature=True)),
    "rf-feature-huge": ("hwr-rf/2", lambda doc: _first_split(doc, feature=2**70)),
    "rf-count-float": ("hwr-rf/2", lambda doc: _first_count(doc, 2.7)),
    "rf-count-string": ("hwr-rf/2", lambda doc: _first_count(doc, "3")),
    "rf-count-bool": ("hwr-rf/2", lambda doc: _first_count(doc, True)),
    "rf-count-huge": ("hwr-rf/2", lambda doc: _first_count(doc, 2**70)),
    "rf-count-null": ("hwr-rf/2", lambda doc: _first_count(doc, None)),
    "rf-counts-null": ("hwr-rf/2", lambda doc: doc.update(counts=None)),
    "rf-counts-number": ("hwr-rf/2", lambda doc: doc.update(counts=5)),
    "rf-threshold-bool": ("hwr-rf/2", lambda doc: _first_split(doc, threshold=True)),
    "rf-threshold-string": ("hwr-rf/2", lambda doc: _first_split(doc, threshold="0.5")),
    "rf-ends-inside-a-tree": ("hwr-rf/2", lambda doc: doc.update(
        feature=doc["feature"] + [0], threshold=doc["threshold"] + [0.5])),
    "rf-leaves-not-rows": ("hwr-rf/2", lambda doc: doc["counts"].extend([1] + [0] * 13)),
    "rf-lengths-differ": ("hwr-rf/2", lambda doc: doc["threshold"].pop()),
    "rf-n_classes-3": ("hwr-rf/2", _three_classes),
    "rf-d-infinite": ("hwr-rf/2", lambda doc: doc.update(d=float("inf"))),
    "mlp-o-20": ("hwr-mlp/2", lambda doc: _mlp_outputs(doc, 20)),
    "mlp-o-3": ("hwr-mlp/2", lambda doc: _mlp_outputs(doc, 3)),
    "svm-class-15": ("hwr-svm/3", lambda doc: _svm_class_3_as(doc, 15)),
    "rf-d-float": ("hwr-rf/2", lambda doc: doc.update(d=3.7)),
    "rf-seed-string": ("hwr-rf/2", lambda doc: doc.update(seed="7")),
    "rf-n_classes-float": ("hwr-rf/2", lambda doc: doc.update(n_classes=14.0)),
    "pca-k-float": ("hwr-pca/2", lambda doc: doc.update(k=2.0)),
    "rp-seed-string": ("hwr-rp/2 gaussian", lambda doc: doc.update(seed="1")),
    "rp-d-bool": ("hwr-rp/2 sparse", lambda doc: doc.update(d=True)),
    "mlp-h-float": ("hwr-mlp/2", lambda doc: doc.update(h=4.0)),
    "svm-dim-float": ("hwr-svm/3", lambda doc: doc.update(dim=doc["dim"] + 0.7)),
    "svm-classes-float": ("hwr-svm/3", lambda doc: _first_pairs(
        doc, 3, classes=[1.5, 2.5, 3.5])),
    "svm-gamma-nan": ("hwr-svm/3", lambda doc: doc.update(gamma=float("nan"))),
    "svm-gamma-inf": ("hwr-svm/3", lambda doc: doc.update(gamma=float("inf"))),
    "svm-gamma-string": ("hwr-svm/3", lambda doc: doc.update(gamma="0.001953125")),
    "svm-gamma-negative": ("hwr-svm/3", lambda doc: doc.update(gamma=-1.0)),
    "svm-c-zero": ("hwr-svm/3", lambda doc: doc.update(c=0)),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_inconsistent_model_raises_model_file_error(case, tmp_path):
    layout, edit = INCONSISTENT[case]
    model = _tiny_model(layout)
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError) as info:
        type(model).load(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("case", ["rp-too-large", "rp-too-large-sparse"])
def test_projection_too_large_to_draw_predict_exit_2_at_once(case, tmp_path):
    """The draw allocates its output matrix before it draws any entry, so a file
    that states 10**14 entries fails on that allocation and not hours into the draw."""
    layout, edit = INCONSISTENT[case]
    path = tmp_path / "rp.json"
    _tiny_model(layout).save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    image = tmp_path / "word.pgm"
    imaging.write_pgm(image, synth.render_word(3, synth.SynthSpec(1, 0), 0))
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "hwr.cli", "predict", "--image", str(image), "--reducer", str(path),
         "--model", str(path)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: malformed hwr-rp/2 model (")
    assert "MemoryError" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", sorted(c for c in INCONSISTENT if c.startswith("rf-")))
def test_inconsistent_forest_eval_exit_2(case, tmp_path, capsys):
    X, y = _blobs()
    dataset.write_fmx(X, tmp_path / "x.fmx")
    dataset.write_label_file(y, tmp_path / "x.labels")
    path = tmp_path / "rf.json"
    _tiny_model("hwr-rf/2").save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    INCONSISTENT[case][1](doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["eval", "--in", str(tmp_path / "x.fmx"), "--labels",
                     str(tmp_path / "x.labels"), "--model", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed hwr-rf/2 model ")


def _one_leaf_of_width_0(doc: dict) -> None:
    """Make a saved forest one tree of one leaf, which splits on none of its 0 features."""
    doc.update(d=0, feature=[-1], threshold=[0.0], counts=[1] + [0] * 13)


# Each edit gives a saved model an input width of 0, or a PCA no components or an
# MLP no hidden units, with payloads of the shapes it states, so that nothing but
# the size itself is wrong.
WIDTH_ZERO = {
    "pca-d-0": ("hwr-pca/2", lambda doc: doc.update(
        d=0, mean=dataset.pack(np.zeros(0)), components=dataset.pack(np.zeros((doc["k"], 0))))),
    "pca-k-0": ("hwr-pca/2", lambda doc: doc.update(
        k=0, components=dataset.pack(np.zeros((0, doc["d"]))),
        explained_variance=dataset.pack(np.zeros(0)))),
    "mlp-m-0": ("hwr-mlp/2", lambda doc: doc.update(
        m=0, w1=dataset.pack(np.zeros((doc["h"], 0))))),
    "mlp-h-0": ("hwr-mlp/2", lambda doc: doc.update(
        h=0, w1=dataset.pack(np.zeros((0, doc["m"]))), b1=dataset.pack(np.zeros(0)),
        w2=dataset.pack(np.zeros((doc["o"], 0))))),
    "svm-dim-0": ("hwr-svm/3", lambda doc: doc.update(
        dim=0, support_vectors=dataset.pack(np.zeros((doc["n_support"], 0))))),
    "rf-d-0": ("hwr-rf/2", _one_leaf_of_width_0),
}


@pytest.mark.parametrize("case", sorted(WIDTH_ZERO))
def test_size_zero_refused_and_cli_exit_2(case, tmp_path):
    """A model of input width 0 (or of no PCA components or hidden units) is refused by its
    loader, and `hwr predict` and `hwr eval` exit 2 with the one line of that refusal."""
    layout, edit = WIDTH_ZERO[case]
    key = case.split("-")[1]
    path = tmp_path / "model.json"
    doc = json.loads(_saved(layout))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError) as info:
        dataset.read_model(path, PcaModel, MlpModel, SvmModel, ForestModel)
    message = str(info.value)
    assert message.startswith(f"{path}: malformed {layout} model (")
    assert f"{key} is 0, not at least 1" in message
    X, y = _blobs()
    dataset.write_fmx(X, tmp_path / "x.fmx")
    dataset.write_label_file(y, tmp_path / "x.labels")
    absent = str(tmp_path / "absent.pgm")  # the model's refusal comes before any read of it
    if layout == "hwr-pca/2":
        (tmp_path / "rf.json").write_bytes(_saved("hwr-rf/2"))
        commands = [["predict", "--image", absent, "--reducer", str(path),
                     "--model", str(tmp_path / "rf.json")]]
    else:
        commands = [["predict", "--image", absent, "--model", str(path)],
                    ["eval", "--in", str(tmp_path / "x.fmx"), "--labels",
                     str(tmp_path / "x.labels"), "--model", str(path)]]
    for argv in commands:
        assert _cli(argv) == (2, "", f"error: {message}\n"), argv


@functools.cache
def _saved(layout: str) -> bytes:
    """The bytes of the tiny model of a layout."""
    with tempfile.TemporaryDirectory() as tmp:
        _tiny_model(layout).save(Path(tmp) / "model.json")
        return (Path(tmp) / "model.json").read_bytes()


# Integers stay in [-2, 42] or above 2**60, and a nudge moves one by at most 2: a
# projection that loads has a few thousand entries, and one of more entries than an
# address space holds fails at its allocation.
_INTEGERS = st.one_of(st.integers(-2, 42), st.sampled_from([2**61, 2**63, 2**64]))
_WORDS = sorted({layout.split()[0] for layout in LAYOUT}) + ["rbf", "gaussian", "sparse",
                                                              "splitmix64"]
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTEGERS, st.floats(), st.text(max_size=6),
              st.sampled_from(_WORDS), st.lists(st.floats(), max_size=6).map(dataset.pack)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8)


@st.composite
def _model_files(draw, layout: str) -> bytes:
    """The tiny model of a layout after up to three edits, each of which drops a field,
    replaces it, nudges an integer or replaces one list entry; or its bytes with one run
    cut out or one byte changed."""
    if draw(st.booleans()):
        data = _saved(layout)
        start = draw(st.integers(0, len(data)))
        if draw(st.booleans()):
            return data[:start] + data[start + draw(st.integers(1, 8)):]
        return data[:start] + bytes([draw(st.sampled_from(b'{}[],:" x\xff'))]) + data[start + 1:]
    doc = json.loads(_saved(layout))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(doc) + ["format"]))
        value, edit = doc.get(key), draw(st.sampled_from(["drop", "replace", "nudge", "entry"]))
        if edit == "entry" and isinstance(value, list) and value:
            value[draw(st.integers(0, len(value) - 1))] = draw(_VALUES)
        elif edit == "nudge" and type(value) is int:
            doc[key] = value + draw(st.sampled_from([-2, -1, 1, 2]))
        elif edit == "drop":
            doc.pop(key, None)
        else:
            doc[key] = draw(_VALUES)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The blobs as an FMX with labels for `eval`, and a forest for `predict` to serve."""
    root = tmp_path_factory.mktemp("model-fuzz")
    X, y = _blobs()
    dataset.write_fmx(X, root / "x.fmx")
    dataset.write_label_file(y, root / "x.labels")
    (root / "rf.json").write_bytes(_saved("hwr-rf/2"))
    return root


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("layout", sorted(LAYOUT))
class TestReadModelFuzz:
    """Whatever its bytes, a model file loads as a model that takes rows of exactly its input
    width d, or raises ModelFileError naming its path.  `hwr predict`, and `hwr eval` for a
    classifier, then exit 2 with that one line, before they look at the image."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_model_or_error_naming_the_path(self, layout, fuzz_inputs, data):
        classifier = layout not in ("hwr-pca/2", "hwr-rp/2 gaussian", "hwr-rp/2 sparse")
        load = cli.load_classifier if classifier else dimred.load_reducer
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_bytes(data.draw(_model_files(layout)))
            try:
                model = load(path)
            except ModelFileError as exc:
                message = str(exc)
                assert message.startswith(f"{path}: ")
                served = ["--model", str(path)] if classifier else [
                    "--reducer", str(path), "--model", str(fuzz_inputs / "rf.json")]
                # no such image: the model's refusal must come before any read of it
                commands = [["predict", "--image", f"{tmp}/absent.pgm", *served]]
                if classifier:
                    commands.append(["eval", "--in", str(fuzz_inputs / "x.fmx"), "--labels",
                                     str(fuzz_inputs / "x.labels"), "--model", str(path)])
                for argv in commands:
                    assert _cli(argv) == (2, "", f"error: {message}\n"), argv
                return
        apply = model.predict_batch if classifier else model.transform
        assert type(model.d) is int and model.d >= 0
        for width in {model.d - 1, model.d, model.d + 1} & set(range(1000)):
            if width == model.d:
                assert apply(np.zeros((1, width))).shape[0] == 1
            else:
                with pytest.raises(ValueError):
                    apply(np.zeros((1, width)))


def _python_encoder_bytes(doc: dict) -> bytes:
    """What ``json.dump`` writes: CPython's pure-Python encoder."""
    return "".join(json.JSONEncoder().iterencode(doc)).encode()


@pytest.mark.parametrize("layout", sorted(LAYOUT))
def test_write_model_bytes_equal_json_dumps(layout, tmp_path, monkeypatch):
    written = []
    real_write = dataset.write_model

    def recording_write(path, doc):
        written.append(doc)
        real_write(path, doc)

    monkeypatch.setattr(dataset, "write_model", recording_write)
    path = tmp_path / "model.json"
    _tiny_model(layout).save(path)
    [doc] = written
    assert path.read_bytes() == json.dumps(doc).encode() == _python_encoder_bytes(doc)


def test_write_model_bytes_non_ascii_and_empty_lists(tmp_path):
    doc = {
        "format": "hwr-x/1",
        "name": "\u00c4rger \u2713 \u65e5\u672c \U0001d11e \"q\" \\ \n",
        "nested": [[], [[]], {"empty": [], "deeper": [[[]], {}]}],
        "mixed": [1, [2, 3], {"a": []}, "s", [], {}],
        "floats": [0.1, -0.0, 1e300, 5e-324, 1 / 3],
        "ints": [0, -1, 2**63, True, None],
        "\u00e9": [],
        "empty": {},
    }
    path = tmp_path / "model.json"
    dataset.write_model(path, doc)
    assert path.read_bytes() == json.dumps(doc).encode() == _python_encoder_bytes(doc)
    assert json.loads(path.read_text(encoding="utf-8")) == doc


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_span_hooks_install_and_record(tmp_path):
    """The traced benchmark wraps model methods by name; they must stay where it looks."""
    spans = _load_spans()
    originals = (svm.ovo_train, SvmModel.__dict__["save"], ForestModel.__dict__["load"])
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        X, y = _blobs()
        dimred.pca_fit(X, 2).save(tmp_path / "pca.json")
        dimred.load_reducer(tmp_path / "pca.json").transform(X)
        for name in ("hwr-mlp/2", "hwr-svm/3", "hwr-rf/2"):
            path = tmp_path / f"{name.split('/')[0]}.json"
            _tiny_model(name).save(path)
            cli.load_classifier(path).predict_batch(X[:1])
        ForestModel.load(tmp_path / "hwr-rf.json")
    finally:
        tracer.uninstall()
    assert (svm.ovo_train, SvmModel.__dict__["save"], ForestModel.__dict__["load"]) == originals
    names = {span[0] for span in tracer.spans}
    for layer in ("mlp", "svm", "forest"):
        assert {f"{layer}.save", f"{layer}.predict"} <= names
    assert {"mlp.train", "svm.ovo_train", "forest.train", "forest.load", "dimred.save",
            "dimred.load_reducer", "dimred.transform", "cli.load_classifier"} <= names
    counts = tracer.counts
    assert counts["svm.ovo_fits"] == 1 and counts["svm.sv_rows"] > 0
    assert counts["svm.smo_steps"] > 0 and counts["svm.sv_distinct"] > 0
    assert counts["forest.nodes"] > 0
    assert min(counts[f"{layer}.model_bytes"] for layer in ("dimred", "mlp", "svm", "forest")) > 0
