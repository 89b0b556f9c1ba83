from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hwr import cli, dataset, imaging


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A one-machine svm file for the 8 PCA columns of pipeline_dir; it would load and
# predict with "kernel": "rbf"
POLY_SVM = json.dumps({
    "format": "hwr-svm/1", "classes": [1, 2], "c": 1.0, "gamma": 1.0, "kernel": "poly",
    "machines": [{"pair": [1, 2], "support_vectors": [0.0] * 8, "n_support": 1, "dim": 8,
                  "dual_coef": [1.0], "bias": 0.0}],
})

# A forest over the 8 PCA dimensions whose left leaf has one count instead of
# 14; no image reaches it, since every projection exceeds the threshold.
SHORT_LEAF_RF = json.dumps({
    "format": "hwr-rf/1", "d": 8, "seed": 0, "n_classes": 14,
    "trees": [{"feature": 0, "threshold": -1e300, "left": {"counts": [1]},
               "right": {"counts": [1] + [0] * 13}}],
})


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

    def test_default_shape(self, pipeline_dir):
        X = dataset.read_fmx(pipeline_dir / "feat.fmx")
        assert X.shape == (56, 3780)
        labels = dataset.read_label_file(str(pipeline_dir / "feat.fmx") + ".labels")
        assert labels.shape == (56,)

    def test_unreadable_image_listed_and_run_continues(self, capsys, tmp_path):
        img = np.full((20, 40), 255, np.uint8)
        img[5:15, 5:35] = 10
        imaging.write_pgm(tmp_path / "good.pgm", img)
        (tmp_path / "broken.pgm").write_bytes(b"P5\n9 9\n255\n123")
        (tmp_path / "manifest.csv").write_text(
            "path,label\ngood.pgm,1\nbroken.pgm,2\n", encoding="utf-8")
        code, out, err = run(capsys, "features",
                             "--manifest", str(tmp_path / "manifest.csv"),
                             "--out", str(tmp_path / "f.fmx"))
        assert code == 1
        assert "broken.pgm" in err
        assert dataset.read_fmx(tmp_path / "f.fmx").shape == (1, 3780)


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

    def test_dim_zero_usage_error(self, capsys, tmp_path, pipeline_dir):
        code, _, err = run(capsys, "reduce", "--in", str(pipeline_dir / "feat.fmx"),
                           "--method", "pca", "--dim", "0",
                           "--model", str(tmp_path / "m.json"),
                           "--out", str(tmp_path / "r.fmx"))
        assert code == 2
        assert "error" in err


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
                                      pytest.param(POLY_SVM, id="poly-kernel"),
                                      pytest.param(SHORT_LEAF_RF, id="rf-short-leaf")])
    def test_corrupt_model_exit_2_without_traceback(self, tmp_path, pipeline_dir, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "hwr.cli", "predict",
             "--image", str(pipeline_dir / "imgs" / "c01_s000.pgm"),
             "--reducer", str(pipeline_dir / "pca.json"), "--model", str(bad)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {bad}: ")
        assert "Traceback" not in proc.stderr


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        for sub in ("synth", "features", "reduce", "train", "eval", "predict"):
            assert cli.main([sub, "--help"]) == 0
            capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["bogus"]) == 2

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
