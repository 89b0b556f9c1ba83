from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import scalar_word_features

from hwr import cli, dataset, dimred, features, imaging, workers


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def predict_in_subprocess(pipeline_dir: Path, reducer: Path, model: Path):
    """`hwr predict` on one image in a fresh interpreter, as a user runs it."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "hwr.cli", "predict",
         "--image", str(pipeline_dir / "imgs" / "c01_s000.pgm"),
         "--reducer", str(reducer), "--model", str(model)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


# A one-machine svm file for the 8 PCA columns of pipeline_dir; it would load and
# predict with "kernel": "rbf"
POLY_SVM = json.dumps({
    "format": "hwr-svm/3", "classes": [1, 2], "c": 1.0, "gamma": 1.0, "kernel": "poly",
    "pairs": [[1, 2]], "n_support": 1, "dim": 8, "support_vectors": dataset.pack(np.zeros(8)),
    "coef": dataset.pack([1.0]), "bias": dataset.pack([0.0]),
})

# A forest over the 8 PCA dimensions whose left leaf has one count instead of
# 14, so its two leaves have 15; no image reaches it, since every projection
# exceeds the threshold.
SHORT_LEAF_RF = json.dumps({
    "format": "hwr-rf/2", "d": 8, "seed": 0, "n_classes": 14, "feature": [0, -1, -1],
    "threshold": [-1e300, 0.0, 0.0], "counts": [1] + [1] + [0] * 13,
})

# Files that loaded and predicted a class with exit 0 before they were refused:
# a forest without trees, an svm without pairs, and an svm of one class.
EMPTY_RF = json.dumps({"format": "hwr-rf/2", "d": 8, "seed": 0, "n_classes": 14,
                       "feature": [], "threshold": [], "counts": []})

# A forest as the previous version wrote it: nested JSON trees.
RF_1 = json.dumps({"format": "hwr-rf/1", "d": 8, "seed": 0, "n_classes": 14,
                   "trees": [{"counts": [1] + [0] * 13}]})


# An mlp file whose 20 outputs predict class 20 and an svm file of classes 15
# and 16, both over the 8 PCA columns: each loaded and printed a class that is
# not a district with exit 0.
MLP_20_OUTPUTS = json.dumps({
    "format": "hwr-mlp/2", "m": 8, "h": 1, "o": 20, "w1": dataset.pack(np.zeros(8)),
    "b1": dataset.pack([0.0]), "w2": dataset.pack(np.zeros(20)),
    "b2": dataset.pack(np.arange(20.0)),
})
SVM_CLASSES_15_16 = json.dumps({
    "format": "hwr-svm/3", "classes": [15, 16], "c": 1.0, "gamma": 1.0, "kernel": "rbf",
    "pairs": [[15, 16]], "n_support": 1, "dim": 8, "support_vectors": dataset.pack(np.zeros(8)),
    "coef": dataset.pack([1.0]), "bias": dataset.pack([0.0]),
})

# A gamma of NaN makes every decision NaN, so predict would print the second class.
SVM_GAMMA_NAN = json.dumps({
    "format": "hwr-svm/3", "classes": [1, 2], "c": 1.0, "gamma": float("nan"), "kernel": "rbf",
    "pairs": [[1, 2]], "n_support": 1, "dim": 8, "support_vectors": dataset.pack(np.zeros(8)),
    "coef": dataset.pack([1.0]), "bias": dataset.pack([0.0]),
})


def _pairless_svm(classes: list[int]) -> str:
    return json.dumps({
        "format": "hwr-svm/3", "classes": classes, "c": 1.0, "gamma": 1.0, "kernel": "rbf",
        "pairs": [], "n_support": 1, "dim": 8, "support_vectors": dataset.pack(np.zeros(8)),
        "coef": dataset.pack([]), "bias": dataset.pack([]),
    })


# A tree of 3,000 splits, each with a leaf on its right: flat lists, so it
# loads and predicts class 1.
CHAIN_RF = json.dumps({"format": "hwr-rf/2", "d": 8, "seed": 0, "n_classes": 14,
                       "feature": [0] * 3000 + [-1] * 3001, "threshold": [0.0] * 6001,
                       "counts": ([1] + [0] * 13) * 3001})

# A forest whose feature list nests 3,000 levels deep; json.load recurses once
# per level.
DEEP_RF = ('{"format": "hwr-rf/2", "d": 8, "seed": 0, "n_classes": 14, "feature": '
           + "[" * 3000 + "]" * 3000 + ', "threshold": [], "counts": []}')


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Tiny pipeline run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli-pipeline")
    assert cli.main(["synth", "--out", str(root / "imgs"), "--per-class", "4",
                     "--seed", "11"]) == 0
    assert cli.main(["features", "--manifest", str(root / "imgs" / "manifest.csv"),
                     "--out", str(root / "feat.fmx")]) == 0
    assert cli.main(["reduce", "--in", str(root / "feat.fmx"), "--method", "pca",
                     "--dim", "8", "--model", str(root / "pca.json"),
                     "--out", str(root / "reduced.fmx")]) == 0
    assert cli.main(["train", "--in", str(root / "reduced.fmx"),
                     "--labels", str(root / "feat.fmx.labels"),
                     "--classifier", "rf", "--trees", "15",
                     "--out", str(root / "rf.json"), "--split-seed", "5"]) == 0
    return root


class TestSynth:
    def test_per_class_56_writes_784(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--per-class", "56", "--seed", "1")
        assert code == 0
        assert "784 images written" in out

    def test_per_class_1_writes_14(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--per-class", "1", "--seed", "1")
        assert code == 0
        assert "14 images written" in out

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run(capsys, "synth", "--per-class", "1")
        assert code == 2


class TestFeatures:
    def test_scalars_flag_appends_three(self, capsys, tmp_path, pipeline_dir):
        code, out, _ = run(capsys, "features",
                           "--manifest", str(pipeline_dir / "imgs" / "manifest.csv"),
                           "--out", str(tmp_path / "s.fmx"), "--scalars")
        assert code == 0
        assert dataset.read_fmx(tmp_path / "s.fmx").shape == (56, 3783)

    def test_matrix_bytes_match_reference_chain(self, tmp_path, pipeline_dir):
        manifest = dataset.load_manifest(pipeline_dir / "imgs" / "manifest.csv")
        rows = [scalar_word_features(imaging.read_pgm(p)) for p in manifest.paths()]
        dataset.write_fmx(np.array(rows), tmp_path / "reference.fmx")
        assert ((pipeline_dir / "feat.fmx").read_bytes()
                == (tmp_path / "reference.fmx").read_bytes())

    def test_default_shape(self, pipeline_dir):
        X = dataset.read_fmx(pipeline_dir / "feat.fmx")
        assert X.shape == (56, 3780)
        labels = dataset.read_label_file(str(pipeline_dir / "feat.fmx") + ".labels")
        assert labels.shape == (56,)

    def test_unreadable_image_listed_and_run_continues(self, capsys, tmp_path, monkeypatch):
        """A missing, a truncated and a blank image, each in its own block of rows."""
        for k in range(3):
            img = np.full((20, 40), 255, np.uint8)
            img[5:15, 5 + k:35 - k] = 10
            imaging.write_pgm(tmp_path / f"good{k}.pgm", img)
        (tmp_path / "broken.pgm").write_bytes(b"P5\n9 9\n255\n123")
        imaging.write_pgm(tmp_path / "blank.pgm", np.full((20, 40), 255, np.uint8))
        n = 2 * workers.BLOCK + 5
        bad = {3: "missing.pgm", workers.BLOCK + 1: "broken.pgm",
               2 * workers.BLOCK + 2: "blank.pgm"}
        records = [(bad.get(i, f"good{i % 3}.pgm"), i % 14 + 1) for i in range(n)]
        (tmp_path / "manifest.csv").write_text(
            "path,label\n" + "".join(f"{rel},{cid}\n" for rel, cid in records), encoding="utf-8")
        good = [(rel, cid) for rel, cid in records if rel.startswith("good")]
        dataset.write_fmx(np.array([features.extract_word_features(imaging.read_pgm(tmp_path / rel))
                                    for rel, _ in good]), tmp_path / "reference.fmx")
        missing = tmp_path / "missing.pgm"
        expected_err = (
            f"failed: missing.pgm: [Errno 2] No such file or directory: '{missing}'\n"
            f"failed: broken.pgm: {tmp_path / 'broken.pgm'}: truncated pixel data: "
            "expected 81 bytes, got 3\n"
            "failed: blank.pgm: image contains no ink pixels\n"
            f"3 of {n} images failed\n")
        for count in (1, 2):  # inline, then two workers
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
            code, out, err = run(capsys, "features",
                                 "--manifest", str(tmp_path / "manifest.csv"),
                                 "--out", str(tmp_path / f"f{count}.fmx"))
            assert code == 1
            assert err == expected_err
            assert out.startswith(f"{len(good)} x 3780 features written to ")
            assert ((tmp_path / f"f{count}.fmx").read_bytes()
                    == (tmp_path / "reference.fmx").read_bytes())
            assert (tmp_path / f"f{count}.fmx.labels").read_text() == "".join(
                f"{cid}\n" for _, cid in good)

    @pytest.mark.parametrize("label", ["1_4", "\u0661\u0664", "+3"])
    def test_non_decimal_manifest_label_exit_2(self, capsys, tmp_path, label):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"path,label\na.pgm,1\nb.pgm,{label}\n", encoding="utf-8")
        code, _, err = run(capsys, "features", "--manifest", str(manifest),
                           "--out", str(tmp_path / "f.fmx"))
        assert code == 2
        assert err.startswith(f"error: {manifest}: line 3: label {label!r} is not an integer")
        assert not (tmp_path / "f.fmx").exists()

    def test_manifest_without_records_exit_2(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label\n\n", encoding="utf-8")
        code, out, err = run(capsys, "features", "--manifest", str(manifest),
                             "--out", str(tmp_path / "f.fmx"))
        assert code == 2
        assert err == f"error: {manifest}: no records\n" and out == ""
        assert not (tmp_path / "f.fmx").exists()

    def test_non_utf8_manifest_exit_2(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"path,label\na\xff.pgm,1\n")
        code, _, err = run(capsys, "features", "--manifest", str(manifest),
                           "--out", str(tmp_path / "f.fmx"))
        assert code == 2
        assert err.startswith(f"error: {manifest}: not UTF-8")
        assert "Traceback" not in err


class TestReduce:
    def test_pca_dimension(self, pipeline_dir):
        assert dataset.read_fmx(pipeline_dir / "reduced.fmx").shape == (56, 8)

    def test_srp_dimension(self, capsys, tmp_path, pipeline_dir):
        code, _, _ = run(capsys, "reduce", "--in", str(pipeline_dir / "feat.fmx"),
                         "--method", "srp", "--dim", "64", "--seed", "3",
                         "--model", str(tmp_path / "srp.json"),
                         "--out", str(tmp_path / "r.fmx"))
        assert code == 0
        assert dataset.read_fmx(tmp_path / "r.fmx").shape == (56, 64)

    @pytest.mark.parametrize("rows", [None, 2 * workers.BLOCK + 2], ids=["inline", "forked"])
    def test_pca_writes_the_bytes_of_fit_then_transform(self, capsys, monkeypatch, tmp_path,
                                                        pipeline_dir, rows):
        """`reduce --method pca` writes what `pca_fit` and then `pca_transform` give, byte
        for byte: the pipeline's 56 rows in one inline block, or 130 rows in forked blocks."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        infile = pipeline_dir / "feat.fmx"
        if rows is not None:
            infile = tmp_path / "x.fmx"
            dataset.write_fmx(np.random.default_rng(rows).normal(size=(rows, 300)), infile)
        code, out, _ = run(capsys, "reduce", "--in", str(infile), "--method", "pca",
                           "--dim", "8", "--model", str(tmp_path / "pca.json"),
                           "--out", str(tmp_path / "r.fmx"))
        assert code == 0 and out.startswith(f"{rows or 56} x 8 reduced matrix written to ")
        X = dataset.read_fmx(infile)
        model = dimred.pca_fit(X, 8)
        model.save(tmp_path / "expected.json")
        dataset.write_fmx(dimred.pca_transform(model, X), tmp_path / "expected.fmx")
        for got, want in (("pca.json", "expected.json"), ("r.fmx", "expected.fmx")):
            assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes()

    def test_dim_zero_usage_error(self, capsys, tmp_path, pipeline_dir):
        code, _, err = run(capsys, "reduce", "--in", str(pipeline_dir / "feat.fmx"),
                           "--method", "pca", "--dim", "0",
                           "--model", str(tmp_path / "m.json"),
                           "--out", str(tmp_path / "r.fmx"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("method", ["grp", "srp"])
    def test_projection_dim_zero_exit_2_writing_nothing(self, capsys, tmp_path, pipeline_dir,
                                                        method):
        code, out, err = run(capsys, "reduce", "--in", str(pipeline_dir / "feat.fmx"),
                             "--method", method, "--dim", "0",
                             "--model", str(tmp_path / "m.json"),
                             "--out", str(tmp_path / "r.fmx"))
        assert (code, out, err) == (2, "", "error: dimensions must be >= 1, got d=3780, k=0\n")
        assert list(tmp_path.iterdir()) == []

    # 10 * 10**14 entries: far more than any address space, so the allocation fails at once
    @pytest.mark.parametrize("method", ["srp", "grp"])
    def test_dim_too_large_to_allocate_exit_2(self, capsys, tmp_path, method):
        dataset.write_fmx(np.arange(20.0).reshape(2, 10), tmp_path / "x.fmx")
        code, out, err = run(capsys, "reduce", "--in", str(tmp_path / "x.fmx"),
                             "--method", method, "--dim", str(10**14),
                             "--model", str(tmp_path / "m.json"),
                             "--out", str(tmp_path / "r.fmx"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.fmx"]


class TestTrainEvalPredict:
    def test_eval_report_and_json(self, capsys, tmp_path, pipeline_dir):
        code, out, _ = run(capsys, "eval", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--model", str(pipeline_dir / "rf.json"),
                           "--split-seed", "5",
                           "--json", str(tmp_path / "report.json"),
                           "--out", str(tmp_path / "report.txt"))
        assert code == 0
        assert out.splitlines()[0] == "Label  Precision  Recall  f1-score  Support"
        assert "accuracy:" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert (tmp_path / "report.txt").read_text(encoding="utf-8") == out

    def test_predict_interpret_prints_district(self, capsys, pipeline_dir):
        code, out, _ = run(capsys, "predict",
                           "--image", str(pipeline_dir / "imgs" / "c14_s000.pgm"),
                           "--model", str(pipeline_dir / "rf.json"),
                           "--reducer", str(pipeline_dir / "pca.json"),
                           "--interpret")
        assert code == 0
        lines = out.strip().splitlines()
        predicted = int(lines[0])
        assert 1 <= predicted <= 14
        assert len(lines) == 2 and lines[1]  # district string printed

    def test_mismatched_reducer_exit_2(self, capsys, pipeline_dir):
        code, _, err = run(capsys, "predict",
                           "--image", str(pipeline_dir / "imgs" / "c01_s000.pgm"),
                           "--model", str(pipeline_dir / "rf.json"))
        assert code == 2
        assert "3780" in err and "8" in err  # both dims printed

    @pytest.mark.parametrize("classifier, options", [
        ("mlp", ["--hidden", "4", "--epochs", "1"]),
        ("svm", ["--c", "1", "--gamma", "0.5"]),
        ("rf", ["--trees", "2"]),
    ])
    def test_reducer_of_another_width_than_the_classifier_exit_2(
            self, capsys, tmp_path, pipeline_dir, classifier, options):
        """An srp reducer to 5 columns before a classifier of pca's 8: one `error:` line."""
        model, reducer = tmp_path / f"{classifier}.json", tmp_path / "srp.json"
        assert cli.main(["train", "--in", str(pipeline_dir / "reduced.fmx"),
                         "--labels", str(pipeline_dir / "feat.fmx.labels"),
                         "--classifier", classifier, "--out", str(model), *options]) == 0
        assert cli.main(["reduce", "--in", str(pipeline_dir / "feat.fmx"), "--method", "srp",
                         "--dim", "5", "--model", str(reducer),
                         "--out", str(tmp_path / "srp.fmx")]) == 0
        capsys.readouterr()
        assert run(capsys, "predict", "--image", str(pipeline_dir / "imgs" / "c01_s000.pgm"),
                   "--model", str(model), "--reducer", str(reducer)) == (
            2, "", "error: expected a row or rows of 8 columns, got shape (1, 5)\n")

    @pytest.mark.parametrize("header", [b"P5 " + b"1" * 5000 + b" 1 255\n",
                                        b"P5 1 1 " + b"2" * 4301 + b"\n"],
                             ids=["width-5000", "maxval-4301"])
    def test_overlong_pgm_header_field_exit_2_naming_the_path(self, capsys, tmp_path,
                                                              pipeline_dir, header):
        image = tmp_path / "long.pgm"
        image.write_bytes(header + b"\x00")
        code, out, err = run(capsys, "predict", "--image", str(image),
                             "--model", str(pipeline_dir / "rf.json"),
                             "--reducer", str(pipeline_dir / "pca.json"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {image}: invalid ") and err.count("\n") == 1
        assert len(err) < 200

    def test_eval_with_wrong_width_matrix_exit_2(self, capsys, tmp_path, pipeline_dir):
        dataset.write_fmx(np.zeros((56, 5)), tmp_path / "wrong.fmx")
        code, _, err = run(capsys, "eval", "--in", str(tmp_path / "wrong.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--model", str(pipeline_dir / "rf.json"),
                           "--split-seed", "5")
        assert code == 2
        assert "5" in err and "8" in err

    def test_svm_explicit_hyperparameters(self, capsys, tmp_path, pipeline_dir):
        code, out, _ = run(capsys, "train", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--classifier", "svm", "--c", "8", "--gamma", "0.125",
                           "--out", str(tmp_path / "svm.json"), "--split-seed", "5")
        assert code == 0
        assert "svm trained" in out
        code, out, _ = run(capsys, "eval", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--model", str(tmp_path / "svm.json"), "--split-seed", "5")
        assert code == 0

    @pytest.mark.parametrize("c, gamma, name", [("inf", "0.5", "C"), ("1", "inf", "gamma")])
    def test_svm_infinite_hyperparameter_exit_2(self, capsys, tmp_path, pipeline_dir, c, gamma,
                                                name):
        code, _, err = run(capsys, "train", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--classifier", "svm", "--c", c, "--gamma", gamma,
                           "--out", str(tmp_path / "svm.json"))
        assert code == 2
        assert err == f"error: {name} must be finite, got inf\n"
        assert not (tmp_path / "svm.json").exists()

    @pytest.mark.parametrize("lr, rule", [("nan", "> 0"), ("inf", "finite"), ("-inf", "> 0"),
                                          ("0", "> 0")])
    def test_mlp_bad_learning_rate_exit_2(self, capsys, recwarn, tmp_path, pipeline_dir, lr,
                                          rule):
        code, _, err = run(capsys, "train", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--classifier", "mlp", f"--lr={lr}", "--epochs", "1",
                           "--out", str(tmp_path / "mlp.json"))
        assert code == 2
        assert err == f"error: learning_rate must be {rule}, got {float(lr)}\n"
        assert len(recwarn) == 0
        assert not (tmp_path / "mlp.json").exists()

    def test_svm_without_params_usage_error(self, capsys, tmp_path, pipeline_dir):
        code, _, err = run(capsys, "train", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--classifier", "svm",
                           "--out", str(tmp_path / "svm.json"))
        assert code == 2
        assert "grid" in err

    def test_stratified_split_flag(self, capsys, tmp_path, pipeline_dir):
        code, out, _ = run(capsys, "train", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--classifier", "rf", "--trees", "5", "--stratify",
                           "--out", str(tmp_path / "rf.json"), "--split-seed", "5")
        assert code == 0
        code, out, _ = run(capsys, "eval", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--model", str(tmp_path / "rf.json"), "--split-seed", "5",
                           "--stratify")
        assert code == 0
        # per-class 4 at ratio 0.8 -> exactly 1 test sample per class
        supports = [line.split()[-1] for line in out.splitlines()[1:15]]
        assert supports == ["1"] * 14

    @pytest.mark.parametrize("options, message", [
        (("mlp",), "need at least one training sample"),
        (("svm", "--grid", "default"), "stratification infeasible: no samples"),
        (("svm", "--c", "1", "--gamma", "0.5"), "need at least 2 classes, got []"),
        (("rf", "--trees", "5"), "need at least 2 samples"),
    ])
    def test_empty_train_side_is_refused(self, capsys, tmp_path, pipeline_dir, options,
                                         message):
        # 0.01 of 4 rows per class trains on none of the 56
        code, out, err = run(capsys, "train", "--in", str(pipeline_dir / "reduced.fmx"),
                             "--labels", str(pipeline_dir / "feat.fmx.labels"),
                             "--classifier", *options, "--out", str(tmp_path / "m.json"),
                             "--ratio", "0.01", "--split-seed", "5")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "m.json").exists()

    def test_mlp_train_eval(self, capsys, tmp_path, pipeline_dir):
        code, out, _ = run(capsys, "train", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--classifier", "mlp", "--hidden", "20", "--epochs", "50",
                           "--seed", "3", "--out", str(tmp_path / "mlp.json"),
                           "--split-seed", "5")
        assert code == 0
        code, out, _ = run(capsys, "eval", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(pipeline_dir / "feat.fmx.labels"),
                           "--model", str(tmp_path / "mlp.json"), "--split-seed", "5")
        assert code == 0

    def test_each_model_file_parsed_once(self, capsys, monkeypatch, pipeline_dir):
        parsed = []
        real_load = json.load

        def counting_load(fh, **kwargs):
            parsed.append(Path(fh.name).name)
            return real_load(fh, **kwargs)

        monkeypatch.setattr(json, "load", counting_load)
        code, _, _ = run(capsys, "predict",
                         "--image", str(pipeline_dir / "imgs" / "c03_s001.pgm"),
                         "--reducer", str(pipeline_dir / "pca.json"),
                         "--model", str(pipeline_dir / "rf.json"))
        assert code == 0
        assert parsed == ["pca.json", "rf.json"]
        parsed.clear()
        code, _, _ = run(capsys, "eval", "--in", str(pipeline_dir / "reduced.fmx"),
                         "--labels", str(pipeline_dir / "feat.fmx.labels"),
                         "--model", str(pipeline_dir / "rf.json"), "--split-seed", "5")
        assert code == 0
        assert parsed == ["rf.json"]

    @pytest.mark.parametrize("text", ["[1, 2]", '{"format": "hwr-svm/1"}',
                                      '{"format": "hwr-svm/2"}', '{"format": "hwr-svm/3"}',
                                      pytest.param(POLY_SVM, id="poly-kernel"),
                                      pytest.param(SHORT_LEAF_RF, id="rf-short-leaf"),
                                      pytest.param("[" * 3000 + "]" * 3000, id="deep-json"),
                                      pytest.param(DEEP_RF, id="deep-rf-tree"),
                                      pytest.param(EMPTY_RF, id="rf-no-trees"),
                                      pytest.param(_pairless_svm([1, 2]), id="svm-no-pairs"),
                                      pytest.param(_pairless_svm([5]), id="svm-one-class"),
                                      pytest.param(MLP_20_OUTPUTS, id="mlp-20-outputs"),
                                      pytest.param(SVM_CLASSES_15_16, id="svm-classes-15-16"),
                                      pytest.param(SVM_GAMMA_NAN, id="svm-gamma-nan")])
    def test_corrupt_model_exit_2_without_traceback(self, tmp_path, pipeline_dir, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        proc = predict_in_subprocess(pipeline_dir, pipeline_dir / "pca.json", bad)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {bad}: ")
        assert "Traceback" not in proc.stderr

    def test_chain_forest_of_3000_splits_predicts(self, tmp_path, pipeline_dir):
        chain = tmp_path / "chain.json"
        chain.write_text(CHAIN_RF, encoding="utf-8")
        proc = predict_in_subprocess(pipeline_dir, pipeline_dir / "pca.json", chain)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_rf_1_file_exit_2_with_rebuild_hint(self, capsys, tmp_path, pipeline_dir, command):
        old = tmp_path / "old.json"
        old.write_text(RF_1, encoding="utf-8")
        if command == "predict":
            proc = predict_in_subprocess(pipeline_dir, pipeline_dir / "pca.json", old)
            code, err = proc.returncode, proc.stderr
        else:
            code, _, err = run(capsys, "eval", "--in", str(pipeline_dir / "reduced.fmx"),
                               "--labels", str(pipeline_dir / "feat.fmx.labels"),
                               "--model", str(old), "--split-seed", "5")
        assert code == 2
        assert err.startswith(f"error: {old}: format 'hwr-rf/1' is not hwr-mlp/2 or ")
        assert "`hwr train`" in err and "Traceback" not in err

    @pytest.mark.parametrize("tag, role", [("hwr-pca/1", "reducer"), ("hwr-rp/1", "reducer"),
                                           ("hwr-mlp/1", "model"), ("hwr-svm/1", "model"),
                                           ("hwr-svm/2", "model")])
    def test_version_1_model_file_exit_2(self, tmp_path, pipeline_dir, tag, role):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"format": tag}), encoding="utf-8")
        files = {"reducer": pipeline_dir / "pca.json", "model": pipeline_dir / "rf.json"}
        files[role] = old
        proc = predict_in_subprocess(pipeline_dir, files["reducer"], files["model"])
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {old}: format {tag!r} is not ")
        assert "hwr train" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("label", ["three", "0", "15", "1_4", "\u0661\u0664", "+3"])
    def test_non_integer_label_exit_2(self, capsys, tmp_path, pipeline_dir, label):
        bad = tmp_path / "bad.labels"
        bad.write_text(f"1\n2\n{label}\n", encoding="utf-8")
        code, _, err = run(capsys, "train", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(bad), "--classifier", "svm", "--c", "1",
                           "--gamma", "0.5", "--out", str(tmp_path / "svm.json"))
        assert code == 2
        assert err.startswith(f"error: {bad}: line 3: ")
        assert not (tmp_path / "svm.json").exists()

    def test_non_utf8_label_file_exit_2(self, capsys, tmp_path, pipeline_dir):
        bad = tmp_path / "bad.labels"
        bad.write_bytes(b"1\n\xff\n")
        code, _, err = run(capsys, "train", "--in", str(pipeline_dir / "reduced.fmx"),
                           "--labels", str(bad), "--classifier", "rf",
                           "--out", str(tmp_path / "rf.json"))
        assert code == 2
        assert err.startswith(f"error: {bad}: not UTF-8")
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def scalars_dir(tmp_path_factory, pipeline_dir):
    """pipeline_dir's words with the scalar features: a grp reducer and an svm on its
    reduced rows, and an mlp on its 3783 raw columns."""
    root = tmp_path_factory.mktemp("cli-scalars")
    labels = str(root / "s.fmx.labels")
    for argv in (["features", "--manifest", str(pipeline_dir / "imgs" / "manifest.csv"),
                  "--out", str(root / "s.fmx"), "--scalars"],
                 ["reduce", "--in", str(root / "s.fmx"), "--method", "grp", "--dim", "24",
                  "--model", str(root / "grp.json"), "--out", str(root / "grp.fmx")],
                 ["train", "--in", str(root / "grp.fmx"), "--labels", labels,
                  "--classifier", "svm", "--c", "4", "--gamma", "0.01",
                  "--out", str(root / "svm.json")],
                 ["train", "--in", str(root / "s.fmx"), "--labels", labels,
                  "--classifier", "mlp", "--hidden", "16", "--epochs", "20",
                  "--out", str(root / "mlp.json")]):
        assert cli.main(argv) == 0
    return root


class TestPredictReadsTheFeatureSet:
    """`predict` takes the scalar features exactly when the first model it feeds takes
    their width, so a model trained on `features --scalars` output is served without a flag."""

    @pytest.mark.parametrize("reducer, model", [("grp.json", "svm.json"), (None, "mlp.json")],
                             ids=["grp-svm", "raw-mlp"])
    def test_scalars_model_served_without_a_flag(self, capsys, pipeline_dir, scalars_dir,
                                                 reducer, model):
        classifier = cli.load_classifier(scalars_dir / model)
        first = dimred.load_reducer(scalars_dir / reducer) if reducer else classifier
        assert first.d == features.word_feature_length(include_scalars=True) == 3783
        served = ["--model", str(scalars_dir / model)]
        if reducer:
            served += ["--reducer", str(scalars_dir / reducer)]
        for image in sorted((pipeline_dir / "imgs").glob("c*_s000.pgm")):
            row = features.extract_word_features(imaging.read_pgm(image), include_scalars=True)
            want = classifier.predict_batch(first.transform(row[None, :]) if reducer
                                            else row[None, :])[0]
            assert run(capsys, "predict", "--image", str(image), *served) == (0, f"{want}\n", "")

    def test_only_image_model_reducer_and_interpret(self, capsys, pipeline_dir, scalars_dir):
        code, out, _ = run(capsys, "predict", "--help")
        assert code == 0
        assert set(re.findall(r"--[a-z]+", out)) == {"--help", "--image", "--model", "--reducer",
                                                     "--interpret"}
        code, out, err = run(capsys, "predict",
                             "--image", str(pipeline_dir / "imgs" / "c01_s000.pgm"),
                             "--model", str(scalars_dir / "mlp.json"), "--scalars")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --scalars\n")


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        for sub in ("synth", "features", "reduce", "train", "eval", "predict"):
            assert cli.main([sub, "--help"]) == 0
            capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["bogus"]) == 2

    def test_import_does_not_load_scipy(self):
        """No runtime code needs scipy, which is slow to import; only tests use it."""
        src = Path(cli.__file__).resolve().parents[1]
        subprocess.run(
            [sys.executable, "-c", "import hwr.cli, sys; assert 'scipy' not in sys.modules"],
            check=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
        )

    def test_env_seed_must_be_int(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HWR_SEED", "not-a-number")
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--per-class", "1")
        assert code == 2
        assert "HWR_SEED" in err

    def test_env_seed_honored(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HWR_SEED", "123")
        code1, _, _ = run(capsys, "synth", "--out", str(tmp_path / "a"), "--per-class", "1")
        monkeypatch.delenv("HWR_SEED")
        code2, _, _ = run(capsys, "synth", "--out", str(tmp_path / "b"), "--per-class", "1")
        assert code1 == code2 == 0
        a = (tmp_path / "a" / "c01_s000.pgm").read_bytes()
        b = (tmp_path / "b" / "c01_s000.pgm").read_bytes()
        assert a != b  # different master seeds give different images

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--out", "{tmp}/d", "--per-class", "1", "--seed", "-1"], "--seed"),
        (["reduce", "--in", "{tmp}/x.fmx", "--method", "srp", "--dim", "3", "--seed=-1",
          "--model", "{tmp}/m.json", "--out", "{tmp}/r.fmx"], "--seed"),
        (["train", "--in", "{tmp}/x.fmx", "--labels", "{tmp}/x.labels", "--classifier", "rf",
          "--out", "{tmp}/m.json", "--seed", "-1"], "--seed"),
        (["train", "--in", "{tmp}/x.fmx", "--labels", "{tmp}/x.labels", "--classifier", "rf",
          "--out", "{tmp}/m.json", "--split-seed", "-1"], "--split-seed"),
        (["eval", "--in", "{tmp}/x.fmx", "--labels", "{tmp}/x.labels", "--model",
          "{tmp}/m.json", "--split-seed", "-1"], "--split-seed"),
    ], ids=["synth", "reduce", "train", "train-split", "eval-split"])
    def test_negative_seed_is_a_usage_error_before_any_file(self, capsys, tmp_path, argv, flag):
        """The inputs do not exist: exit 2, not a read's exit 1, and nothing is written."""
        code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: expected a non-negative integer, got -1\n")
        assert list(tmp_path.iterdir()) == []

    def test_seed_that_is_not_an_integer(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "d"), "--per-class", "1",
                           "--seed", "1.5")
        assert code == 2
        assert err.endswith("error: argument --seed: invalid int value: '1.5'\n")

    def test_projection_file_of_a_negative_seed_still_loads(self, tmp_path):
        path = tmp_path / "srp.json"
        dataset.write_model(path, {"format": "hwr-rp/2", "kind": "sparse",
                                   "generator": "splitmix64", "seed": -1, "d": 9, "k": 4})
        loaded = dimred.load_reducer(path)
        assert loaded.seed == -1
        assert loaded.matrix.tobytes() == dimred.rp_fit("sparse", 9, 4, -1).matrix.tobytes()
