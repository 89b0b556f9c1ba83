"""Acceptance suite: one test (group) per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion.  Criterion 8/9 share one session fixture that executes the
full CLI pipeline twice.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_dual, max_kkt_residual, recover_alphas, relative_gradient_errors

from hwr import cli, dataset, dimred, forest, labels, mlp, svm
from hwr.features import HogParams, hog, hog_length
from hwr.forest import ForestModel, TreeNode, rf_predict_proba
from hwr.rng import derive_seed
from hwr.svm import dual_objective, kernel_matrix, smo_train

from test_metrics import NEURAL_NET_TABLE, SVM_TABLE


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: HOG dimension and the closed-form length law


def test_criterion_01_hog_dimension():
    start = time.perf_counter()
    canonical = np.random.default_rng(0).integers(0, 256, size=(64, 128), dtype=np.uint8)
    ok_canonical = hog(canonical).shape == (3780,) and hog_length(64, 128) == 3780
    geometries = [
        (32, 64, HogParams()),
        (64, 64, HogParams()),
        (48, 96, HogParams(stride=(16, 16))),
        (64, 128, HogParams(cell=(4, 4), block=(8, 8), stride=(4, 4))),
        (40, 72, HogParams(block=(8, 8), stride=(8, 8))),
    ]
    ok_law = True
    for h, w, params in geometries:
        n_by = (h - params.block[0]) // params.stride[0] + 1
        n_bx = (w - params.block[1]) // params.stride[1] + 1
        cells = (params.block[0] // params.cell[0]) * (params.block[1] // params.cell[1])
        expected = n_by * n_bx * cells * params.bins
        img = np.random.default_rng(1).integers(0, 256, size=(h, w), dtype=np.uint8)
        ok_law &= hog_length(h, w, params) == expected == hog(img, params).shape[0]
    elapsed = time.perf_counter() - start
    ok = ok_canonical and ok_law and elapsed < 1.0
    _line(1, ok, f"descriptor length 3780; law holds for 5 geometries ({elapsed:.2f} s)")
    assert ok_canonical and ok_law
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: Johnson-Lindenstrauss dimension audit


def test_criterion_02_jl_dimension_audit():
    got = tuple(dimred.jl_min_dim(736, eps) for eps in (0.5, 0.3, 0.2))
    ok = got == (316, 733, 1523)
    _line(2, ok, f"jl_min_dim(736, 0.5/0.3/0.2) = {got}, table expects (316, 733, 1523)")
    assert got == (316, 733, 1523)


# ---------------------------------------------------------------------------
# Criterion 3: published-table consistency
#
# The supports sum holds, and 26 of the 28 rows satisfy the stated literal
# audit |f1(P, R) - f1_printed| <= 0.005.  Label 13 of both tables misses it
# by 0.0012: the printed recall 0.88 is itself rounded from 7/8 = 0.875, and
# propagating that half-unit input rounding through f1 exceeds the 0.005
# budget (max discrepancy for the printed triple is 0.00617).  The two rows
# are marked strict-xfail: the literal criterion is unattainable as stated;
# the rounding-aware audit at 0.01 passes all rows (tests/test_metrics.py).

_ROWS = [("III", i + 1, *row[:3]) for i, row in enumerate(NEURAL_NET_TABLE)]
_ROWS += [("V", i + 1, *row[:3]) for i, row in enumerate(SVM_TABLE)]

_LITERAL_AUDIT_TOL = 0.005


def _point_audit_gap(p: float, r: float, f1_printed: float) -> float:
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return abs(f1 - f1_printed)


@pytest.mark.parametrize(
    "table, label, p, r, f1_printed",
    [
        pytest.param(
            *row,
            marks=pytest.mark.xfail(
                reason="printed P/R are already rounded; literal 0.005 audit "
                       "unattainable for label 13 (gap 0.0062)",
                strict=True,
            ),
        )
        if row[1] == 13
        else row
        for row in _ROWS
    ],
    ids=[f"{t}-{lbl:02d}" for t, lbl, *_ in _ROWS],
)
def test_criterion_03_f1_point_audit(table, label, p, r, f1_printed):
    assert _point_audit_gap(p, r, f1_printed) <= _LITERAL_AUDIT_TOL


def test_criterion_03_supports_and_summary():
    support_nn = sum(row[3] for row in NEURAL_NET_TABLE)
    support_svm = sum(row[3] for row in SVM_TABLE)
    ok_supports = support_nn == support_svm == 148 == 736 - math.floor(0.8 * 736)
    failing = [(t, lbl) for t, lbl, p, r, f in _ROWS
               if _point_audit_gap(p, r, f) > _LITERAL_AUDIT_TOL]
    _line(
        3,
        False,
        f"supports sum to 148 in both tables: {ok_supports}; literal f1 audit at "
        f"+/-0.005 fails on rows {failing} (gap 0.0062, expected failure: the "
        f"printed inputs are themselves rounded; the 0.01 rounding-aware audit "
        f"passes all 28 rows); 26/28 rows pass the literal audit",
    )
    assert ok_supports
    # pin the defect precisely: exactly label 13 of each table misses the bound
    assert failing == [("III", 13), ("V", 13)]


# ---------------------------------------------------------------------------
# Criterion 4: MLP gradient check


def test_criterion_04_mlp_gradient_check():
    start = time.perf_counter()
    gen = np.random.default_rng(7)
    model = mlp.mlp_init(20, 7, 14, seed=11)
    X = gen.normal(size=(5, 20))
    y = gen.integers(1, 15, size=5)
    errors = relative_gradient_errors(model, X, y, delta=1e-5)
    elapsed = time.perf_counter() - start
    ok = errors.max() < 1e-6 and elapsed < 5.0
    _line(4, ok, f"max relative gradient error {errors.max():.2e} over "
                 f"{errors.size} parameters ({elapsed:.2f} s)")
    assert errors.max() < 1e-6
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Criterion 5: SMO oracle equivalence on small instances


def test_criterion_05_smo_oracle_equivalence():
    start = time.perf_counter()
    worst_rel, worst_kkt = 0.0, 0.0
    for seed in range(10):
        gen = np.random.default_rng(500 + seed)
        n = int(gen.integers(3, 7))
        X = gen.normal(size=(n, 2))
        y = np.ones(n)
        y[: max(1, n // 2)] = -1.0
        gen.shuffle(y)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        c = float(gen.uniform(0.5, 8.0))
        gamma = float(gen.uniform(0.2, 2.0))
        K = kernel_matrix(X, X, gamma)
        machine = smo_train(X, y, c=c, gamma=gamma, tol=1e-5)
        smo_value = dual_objective(recover_alphas(machine, X), y, K)
        oracle = brute_force_dual(K, y, c)
        worst_rel = max(worst_rel, abs(smo_value - oracle) / max(abs(oracle), 1e-9))
        worst_kkt = max(worst_kkt, max_kkt_residual(machine, X, y, c))
    elapsed = time.perf_counter() - start
    ok = worst_rel < 1e-4 and worst_kkt < 1e-3 and elapsed < 10.0
    _line(5, ok, f"10 instances: worst dual gap {worst_rel:.2e} (rel), worst KKT "
                 f"residual {worst_kkt:.2e} ({elapsed:.2f} s)")
    assert worst_rel < 1e-4
    assert worst_kkt < 1e-3
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# Criterion 6: random-forest probability equation


def _leaf(counts) -> TreeNode:
    return TreeNode(counts=np.array(counts, dtype=np.int64))


def test_criterion_06_rf_equation_conformance():
    two = ForestModel(
        trees=[_leaf([0, 0, 4] + [0] * 11), _leaf([0] * 4 + [9] + [0] * 9)],
        d=3, seed=0,
    )
    gen = np.random.default_rng(3)
    five_counts = [gen.integers(0, 20, size=14) + (np.arange(14) == i) for i in range(5)]
    five = ForestModel(trees=[_leaf(c) for c in five_counts], d=3, seed=0)
    x = np.zeros(3)
    ok = True
    for model in (two, five):
        probs = rf_predict_proba(model, x)
        manual = np.mean(
            [t.counts / t.counts.sum() for t in model.trees], axis=0
        )
        ok &= np.abs(probs - manual).max() <= 1e-12
        ok &= abs(probs.sum() - 1.0) <= 1e-12
    tie = forest.rf_predict(two, x)
    ok &= tie == 3
    _line(6, ok, "forest probabilities equal the per-tree mean to 1e-12 on 2- and "
                 "5-tree fixtures; distributions sum to 1; tie-break -> class 3")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: empirical Johnson-Lindenstrauss distortion


def test_criterion_07_jl_empirical_distortion():
    from scipy.spatial.distance import pdist

    start = time.perf_counter()
    gen = np.random.default_rng(77)
    X = gen.normal(size=(200, 3780))
    sq = lambda M: pdist(M, "sqeuclidean")
    original = sq(X)
    fractions = {}
    for kind in ("gaussian", "sparse"):
        P = dimred.rp_fit(kind, 3780, 1523, seed=1523)
        projected = sq(dimred.project(P, X))
        distortion = np.abs(projected / original - 1.0)
        fractions[kind] = float((distortion <= 0.25).mean())
    elapsed = time.perf_counter() - start
    ok = all(f >= 0.99 for f in fractions.values()) and elapsed < 30.0
    _line(7, ok, f"pairwise squared distances within 0.25: "
                 f"GRP {fractions['gaussian']:.4f}, SRP {fractions['sparse']:.4f} "
                 f"({elapsed:.1f} s)")
    assert fractions["gaussian"] >= 0.99
    assert fractions["sparse"] >= 0.99
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criteria 8 and 9: end-to-end synthetic pipeline, run twice


PIPELINE_FILES = (
    "features.fmx",
    "features.fmx.labels",
    "reduced.fmx",
    "pca.json",
    "mlp.json",
    "svm.json",
    "rf.json",
    "mlp_report.txt",
    "svm_report.txt",
    "rf_report.txt",
    "mlp_report.json",
    "svm_report.json",
    "rf_report.json",
)


def _run_pipeline(root: Path) -> dict:
    """synth -> reject 48 -> features -> pca-100 -> three classifiers -> eval."""
    root.mkdir(parents=True, exist_ok=True)
    imgs = root / "imgs"
    assert cli.main(["synth", "--out", str(imgs), "--per-class", "56",
                     "--seed", "42"]) == 0
    # mirror the corpus's rejection step: drop 48 of 784 images, seeded
    manifest = dataset.load_manifest(imgs / "manifest.csv")
    keep = np.sort(
        np.random.default_rng(derive_seed(42, "reject")).choice(784, size=736, replace=False)
    )
    reduced = dataset.Manifest(
        records=[manifest.records[i] for i in keep], root=manifest.root
    )
    dataset.write_manifest(reduced, imgs / "manifest736.csv")
    assert cli.main(["features", "--manifest", str(imgs / "manifest736.csv"),
                     "--out", str(root / "features.fmx")]) == 0
    assert cli.main(["reduce", "--in", str(root / "features.fmx"), "--method", "pca",
                     "--dim", "100", "--model", str(root / "pca.json"),
                     "--out", str(root / "reduced.fmx")]) == 0
    common = ["--in", str(root / "reduced.fmx"),
              "--labels", str(root / "features.fmx.labels"), "--split-seed", "42"]
    trains = {
        "mlp": ["--classifier", "mlp", "--hidden", "100", "--seed", "42"],
        "svm": ["--classifier", "svm", "--grid", "default", "--seed", "42"],
        "rf": ["--classifier", "rf", "--trees", "100", "--seed", "42"],
    }
    accuracies, supports = {}, {}
    for name, extra in trains.items():
        assert cli.main(["train", *common, *extra, "--out", str(root / f"{name}.json")]) == 0
        assert cli.main(["eval", *common, "--model", str(root / f"{name}.json"),
                         "--out", str(root / f"{name}_report.txt"),
                         "--json", str(root / f"{name}_report.json")]) == 0
        doc = json.loads((root / f"{name}_report.json").read_text())
        accuracies[name] = doc["accuracy"]
        supports[name] = sum(doc["support"])
    return {"accuracies": accuracies, "supports": supports}


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    start = time.perf_counter()
    result_a = _run_pipeline(base / "run_a")
    elapsed_a = time.perf_counter() - start
    result_b = _run_pipeline(base / "run_b")
    return {"base": base, "a": result_a, "b": result_b, "elapsed_a": elapsed_a}


def test_criterion_08_end_to_end_synthetic(pipeline_runs):
    accuracies = pipeline_runs["a"]["accuracies"]
    supports = pipeline_runs["a"]["supports"]
    elapsed = pipeline_runs["elapsed_a"]
    ok = (
        all(acc >= 0.90 for acc in accuracies.values())
        and all(s == 148 for s in supports.values())
        and elapsed < 600.0
    )
    _line(8, ok, f"test-split accuracies on 148 samples: "
                 f"mlp {accuracies['mlp']:.3f}, svm {accuracies['svm']:.3f}, "
                 f"rf {accuracies['rf']:.3f} ({elapsed:.0f} s)")
    for name, acc in accuracies.items():
        assert acc >= 0.90, f"{name} reached only {acc:.3f}"
    assert all(s == 148 for s in supports.values())
    assert elapsed < 600.0


def test_criterion_09_pipeline_determinism(pipeline_runs):
    base = pipeline_runs["base"]
    differing = []
    for rel in PIPELINE_FILES:
        a = (base / "run_a" / rel).read_bytes()
        b = (base / "run_b" / rel).read_bytes()
        if a != b:
            differing.append(rel)
    # images too: the synthetic corpus itself must be reproducible
    sample_images = ["c01_s000.pgm", "c07_s033.pgm", "c14_s055.pgm"]
    for name in sample_images:
        a = (base / "run_a" / "imgs" / name).read_bytes()
        b = (base / "run_b" / "imgs" / name).read_bytes()
        if a != b:
            differing.append(name)
    ok = not differing
    _line(9, ok, f"{len(PIPELINE_FILES)} artifacts + {len(sample_images)} sample "
                 f"images byte-identical across runs"
                 + (f"; differing: {differing}" if differing else ""))
    assert not differing


# ---------------------------------------------------------------------------
# Criterion 10: Unicode fidelity


def test_criterion_10_unicode_fidelity():
    expected = {
        1: (0x0D15, 0x0D3E, 0x0D38, 0x0D7C, 0x0D15, 0x0D4B, 0x0D1F, 0x0D4D),
        2: (0x0D15, 0x0D23, 0x0D4D, 0x0D23, 0x0D42, 0x0D7C),
        3: (0x0D35, 0x0D2F, 0x0D28, 0x0D3E, 0x0D1F, 0x0D4D),
        4: (0x0D15, 0x0D4B, 0x0D34, 0x0D3F, 0x0D15, 0x0D4D, 0x0D15, 0x0D4B, 0x0D1F, 0x0D4D),
        5: (0x0D2E, 0x0D32, 0x0D2A, 0x0D4D, 0x0D2A, 0x0D41, 0x0D31, 0x0D02),
        6: (0x0D0E, 0x0D31, 0x0D23, 0x0D3E, 0x0D15, 0x0D41, 0x0D33, 0x0D02),
        7: (0x0D07, 0x0D1F, 0x0D41, 0x0D15, 0x0D4D, 0x0D15, 0x0D3F),
        8: (0x0D15, 0x0D4B, 0x0D1F, 0x0D4D, 0x0D1F, 0x0D2F, 0x0D02),
        9: (0x0D2A, 0x0D24, 0x0D4D, 0x0D24, 0x0D28, 0x0D02, 0x0D24, 0x0D3F, 0x0D1F,
            0x0D4D, 0x0D1F),
        10: (0x0D24, 0x0D3F, 0x0D30, 0x0D41, 0x0D35, 0x0D28, 0x0D28, 0x0D4D, 0x0D24,
             0x0D2A, 0x0D41, 0x0D30, 0x0D02),
        11: (0x0D06, 0x0D32, 0x0D2A, 0x0D4D, 0x0D2A, 0x0D42, 0x0D34),
        12: (0x0D2A, 0x0D3E, 0x0D32, 0x0D15, 0x0D4D, 0x0D15, 0x0D3E, 0x0D1F, 0x0D4D),
        13: (0x0D24, 0x0D43, 0x0D36, 0x0D42, 0x0D7C),
        14: (0x0D15, 0x0D4A, 0x0D32, 0x0D4D, 0x0D32, 0x0D02),
    }
    mismatched = [cid for cid, cps in expected.items()
                  if labels.district_codepoints(cid) != cps]
    round_trip = all(
        labels.unicode_to_label(labels.label_to_unicode(cid)) == cid
        for cid in range(1, 15)
    )
    ok = not mismatched and round_trip
    _line(10, ok, f"all 14 codepoint sequences bit-exact; round-trip bijection holds")
    assert not mismatched
    assert round_trip


# ---------------------------------------------------------------------------
# Criterion 11: PCA numerical properties


def test_criterion_11_pca_properties():
    gen = np.random.default_rng(1111)
    worst_ortho, worst_mean, worst_recon = 0.0, 0.0, 0.0
    for trial in range(3):
        X = gen.normal(size=(100, 30))
        model = dimred.pca_fit(X, 30)
        gram = model.components @ model.components.T
        worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(30)).max()))
        Z = dimred.pca_transform(model, X)
        worst_mean = max(worst_mean, float(np.abs(Z.mean(axis=0)).max()))
        recon = model.inverse_transform(Z)
        worst_recon = max(worst_recon, float(np.abs(recon - X).max()))
    ok = worst_ortho <= 1e-8 and worst_mean <= 1e-10 and worst_recon <= 1e-8
    _line(11, ok, f"orthonormality {worst_ortho:.1e} <= 1e-8, centered means "
                  f"{worst_mean:.1e} <= 1e-10, k=d reconstruction {worst_recon:.1e} <= 1e-8")
    assert worst_ortho <= 1e-8
    assert worst_mean <= 1e-10
    assert worst_recon <= 1e-8
