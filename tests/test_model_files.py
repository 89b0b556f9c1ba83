"""Model files: the on-disk layout of each kind, decode failures, benchmark hooks."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from hwr import cli, dataset, dimred, forest, mlp, svm
from hwr.dataset import ModelFileError
from hwr.dimred import PcaModel, ProjectionMatrix
from hwr.forest import ForestModel
from hwr.mlp import MlpModel
from hwr.svm import SvmModel

# Key order of each hwr-*/1 document, "format" first.
LAYOUT = {
    "hwr-pca/1": ["format", "d", "k", "mean", "components", "explained_variance"],
    "hwr-rp/1 gaussian": ["format", "kind", "generator", "seed", "d", "k", "values"],
    "hwr-rp/1 sparse": ["format", "kind", "generator", "seed", "d", "k",
                        "rows", "cols", "values"],
    "hwr-mlp/1": ["format", "m", "h", "o", "w1", "b1", "w2", "b2"],
    "hwr-svm/1": ["format", "classes", "c", "gamma", "kernel", "machines"],
    "hwr-rf/1": ["format", "d", "seed", "n_classes", "trees"],
}
SVM_MACHINE_LAYOUT = ["pair", "support_vectors", "n_support", "dim", "dual_coef", "bias"]


def _blobs():
    gen = np.random.default_rng(3)
    centers = [(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0)]
    X = np.vstack([gen.normal(c, 0.5, (6, 3)) for c in centers])
    return X, np.repeat([1, 2, 3], 6)


def _tiny_model(layout: str):
    X, y = _blobs()
    return {
        "hwr-pca/1": lambda: dimred.pca_fit(X, 2),
        "hwr-rp/1 gaussian": lambda: dimred.rp_fit("gaussian", 3, 2, seed=1),
        "hwr-rp/1 sparse": lambda: dimred.rp_fit("sparse", 3, 2, seed=1),
        "hwr-mlp/1": lambda: mlp.train(mlp.mlp_init(3, 4, 14, seed=0), X, y,
                                       mlp.TrainConfig(epochs=2, seed=0)),
        "hwr-svm/1": lambda: svm.ovo_train(X, y, c=1.0, gamma=0.5),
        "hwr-rf/1": lambda: forest.rf_train(X, y, m=2, seed=0),
    }[layout]()


@pytest.mark.parametrize("layout", sorted(LAYOUT))
def test_layout_and_byte_stable_round_trip(layout, tmp_path):
    model = _tiny_model(layout)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    model.save(first)
    doc = json.loads(first.read_text(encoding="utf-8"))
    assert list(doc) == LAYOUT[layout]
    assert doc["format"] == type(model).FORMAT == layout.split()[0]
    if isinstance(model, SvmModel):
        assert all(list(rec) == SVM_MACHINE_LAYOUT for rec in doc["machines"])
    type(model).load(first).save(second)
    assert second.read_bytes() == first.read_bytes()


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


def _first_rf_node(doc: dict, leaf: bool) -> dict:
    """The first leaf (or split) of a saved forest, depth first."""
    todo = list(reversed(doc["trees"]))
    while todo:
        node = todo.pop()
        if ("counts" in node) == leaf:
            return node
        if "counts" not in node:
            todo += [node["right"], node["left"]]
    raise AssertionError("the forest has no such node")


# Each edit makes a saved model disagree with itself: a vector one entry shorter
# than its stated shape (pca d and k, mlp h and o, svm n_support), a kernel
# other than rbf, a forest leaf that is not n_classes non-negative counts with a
# positive sum, or a forest split on a feature outside [0, d) or at a
# non-finite threshold (the tiny forest has d = 3 and 14 classes).
INCONSISTENT = {
    "pca-mean": ("hwr-pca/1", lambda doc: doc["mean"].pop()),
    "pca-explained_variance": ("hwr-pca/1", lambda doc: doc["explained_variance"].pop()),
    "mlp-b1": ("hwr-mlp/1", lambda doc: doc["b1"].pop()),
    "mlp-b2": ("hwr-mlp/1", lambda doc: doc["b2"].pop()),
    "svm-dual_coef": ("hwr-svm/1", lambda doc: doc["machines"][0]["dual_coef"].pop()),
    "svm-poly-kernel": ("hwr-svm/1", lambda doc: doc.update(kernel="poly")),
    "rf-leaf-short": ("hwr-rf/1", lambda doc: _first_rf_node(doc, leaf=True)["counts"].pop()),
    "rf-leaf-negative": ("hwr-rf/1", lambda doc: _first_rf_node(doc, leaf=True).update(
        counts=[-1, 2] + [0] * 12)),
    "rf-leaf-zero-sum": ("hwr-rf/1", lambda doc: _first_rf_node(doc, leaf=True).update(
        counts=[0] * 14)),
    "rf-feature-d": ("hwr-rf/1", lambda doc: _first_rf_node(doc, leaf=False).update(feature=3)),
    "rf-feature-negative": ("hwr-rf/1",
                            lambda doc: _first_rf_node(doc, leaf=False).update(feature=-1)),
    "rf-threshold-nan": ("hwr-rf/1", lambda doc: _first_rf_node(doc, leaf=False).update(
        threshold=float("nan"))),
    "rf-threshold-inf": ("hwr-rf/1", lambda doc: _first_rf_node(doc, leaf=False).update(
        threshold=float("-inf"))),
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


@pytest.mark.parametrize("list_slice", [1, 2, dataset._LIST_SLICE])
def test_write_model_bytes_non_ascii_and_empty_lists(list_slice, tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_LIST_SLICE", list_slice)
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
        for name in ("hwr-mlp/1", "hwr-svm/1", "hwr-rf/1"):
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
    assert counts["forest.nodes"] > 0
    assert min(counts[f"{layer}.model_bytes"] for layer in ("dimred", "mlp", "svm", "forest")) > 0
