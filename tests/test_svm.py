from __future__ import annotations

import itertools
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwr import svm
from hwr.dataset import stratified_folds
from hwr.svm import (
    BinarySvm,
    ConvergenceError,
    DegenerateDataError,
    SvmModel,
    TrainingError,
    dual_objective,
    grid_search,
    kernel_matrix,
    ovo_train,
    smo_train,
)


import oracles
from oracles import (
    brute_force_dual,
    layout_from_machines,
    machine_decision,
    per_machine_predict,
    recover_alphas,
    scalar_ovo_machines,
    scalar_ovo_train,
    scalar_smo_train,
)


class TestRbfKernel:
    def test_self_similarity_is_one(self):
        x = np.array([0.3, -1.2, 5.0])
        assert kernel_matrix(x, x, 2.5)[0, 0] == 1.0

    def test_unit_distance(self):
        assert kernel_matrix(np.array([0.0]), np.array([1.0]), 1.0)[0, 0] == pytest.approx(
            math.exp(-1), abs=1e-12
        )

    def test_symmetry(self):
        gen = np.random.default_rng(0)
        for _ in range(5):
            x, y = gen.normal(size=(2, 4))
            assert kernel_matrix(x, y, 0.7)[0, 0] == pytest.approx(
                kernel_matrix(y, x, 0.7)[0, 0], abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_matrix(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            kernel_matrix(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="gamma must be > 0, got nan"):
            kernel_matrix(np.zeros(2), np.zeros(2), float("nan"))

    def test_kernel_matrix_psd_with_jitter(self):
        gen = np.random.default_rng(1)
        X = gen.normal(size=(12, 5))
        K = kernel_matrix(X, X, gamma=0.8)
        assert np.allclose(K, K.T, atol=1e-12)
        np.linalg.cholesky(K + 1e-9 * np.eye(12))  # raises if not PSD


class TestSmoTrain:
    def test_two_point_analytic_solution(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([-1.0, 1.0])
        machine = smo_train(X, y, c=1e6, gamma=1.0)
        # equality constraint forces alpha_1 = alpha_2; brute force over a grid
        k12 = math.exp(-1.0)
        grid = np.linspace(0.0, 5.0, 200_001)
        dual = 2 * grid - grid**2 * (1 - k12)
        alpha_star = grid[np.argmax(dual)]
        assert np.abs(machine.dual_coef) == pytest.approx(alpha_star, abs=1e-3)
        f = machine_decision(machine, X)
        assert f[0] < 0 < f[1]
        assert f[0] == pytest.approx(-1.0, abs=1e-9)
        assert f[1] == pytest.approx(1.0, abs=1e-9)

    def test_xor_separated(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        machine = smo_train(X, y, c=10.0, gamma=1.0)
        assert (np.sign(machine_decision(machine, X)) == y).all()

    def test_degenerate_identical_points(self):
        X = np.zeros((4, 3))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(DegenerateDataError):
            smo_train(X, y, c=1.0, gamma=1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan")])
    def test_c_not_positive_rejected(self, c):
        X = np.random.default_rng(2).normal(size=(6, 2))
        with pytest.raises(ValueError, match="C must be > 0"):
            smo_train(X, np.tile([1.0, -1.0], 3), c=c, gamma=1.0)
        with pytest.raises(ValueError, match="C must be > 0"):
            ovo_train(X, np.repeat([1, 2, 3], 2), c=c, gamma=1.0)

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["C", "gamma"])
    def test_c_or_gamma_not_finite_rejected(self, name, value):
        X = np.random.default_rng(2).normal(size=(6, 2))
        c, gamma = (value, 1.0) if name == "C" else (1.0, value)
        rule = "finite" if value > 0 else "> 0"
        with pytest.raises(ValueError, match=f"{name} must be {rule}, got {value}"):
            smo_train(X, np.tile([1.0, -1.0], 3), c=c, gamma=gamma)
        with pytest.raises(ValueError, match=f"{name} must be {rule}, got {value}"):
            ovo_train(X, np.repeat([1, 2, 3], 2), c=c, gamma=gamma)

    def test_single_class_rejected(self):
        X = np.random.default_rng(2).normal(size=(5, 2))
        with pytest.raises(TrainingError):
            smo_train(X, np.ones(5), c=1.0, gamma=1.0)

    def test_dual_feasibility(self):
        gen = np.random.default_rng(3)
        X = np.vstack([gen.normal(-1, 0.5, (15, 3)), gen.normal(1, 0.5, (15, 3))])
        y = np.repeat([-1.0, 1.0], 15)
        c = 4.0
        machine = smo_train(X, y, c=c, gamma=0.5)
        alphas = np.abs(machine.dual_coef)
        assert (alphas >= -1e-9).all() and (alphas <= c + 1e-9).all()
        assert abs(machine.dual_coef.sum()) <= 1e-9  # sum alpha_i y_i over SVs

    def test_kkt_residuals_within_tol(self):
        gen = np.random.default_rng(4)
        X = np.vstack([gen.normal(-1, 0.6, (20, 2)), gen.normal(1, 0.6, (20, 2))])
        y = np.repeat([-1.0, 1.0], 20)
        c, tol = 2.0, 1e-3
        machine = smo_train(X, y, c=c, gamma=0.7, tol=tol)
        K = kernel_matrix(X, machine.support_vectors, 0.7)
        f = K @ machine.dual_coef + machine.bias
        margins = y * f
        # recover alpha per training point (zero for non-SVs) by matching rows
        sv_alpha = np.zeros(len(y))
        for i, row in enumerate(X):
            match = np.nonzero((machine.support_vectors == row).all(axis=1))[0]
            if match.size:
                sv_alpha[i] = abs(machine.dual_coef[match[0]])
        for i in range(len(y)):
            if sv_alpha[i] <= 1e-9:
                assert margins[i] >= 1 - tol - 1e-9
            elif sv_alpha[i] >= c - 1e-9:
                assert margins[i] <= 1 + tol + 1e-9
            else:
                assert abs(margins[i] - 1) <= tol + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_small_instance_matches_brute_force(self, seed):
        gen = np.random.default_rng(100 + seed)
        n = int(gen.integers(3, 7))
        X = gen.normal(size=(n, 2))
        y = np.ones(n)
        y[: n // 2] = -1.0
        gen.shuffle(y)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        c = float(gen.uniform(0.5, 8.0))
        gamma = float(gen.uniform(0.2, 2.0))
        K = kernel_matrix(X, X, gamma)
        machine = smo_train(X, y, c=c, gamma=gamma, tol=1e-5)
        smo_value = dual_objective(recover_alphas(machine, X), y, K)
        oracle = brute_force_dual(K, y, c)
        assert smo_value == pytest.approx(oracle, rel=1e-4, abs=1e-6)


class TestOvo:
    def test_two_class_reduction(self):
        gen = np.random.default_rng(5)
        X = np.vstack([gen.normal(-2, 0.4, (10, 2)), gen.normal(2, 0.4, (10, 2))])
        labels = np.repeat([3, 9], 10)
        model = ovo_train(X, labels, c=5.0, gamma=0.5)
        assert len(model.machines) == 1
        machine = model.machines[(3, 9)]
        for x in X:
            expected = 3 if machine_decision(machine, x[None, :])[0] > 0 else 9
            assert model.predict_batch(x[None]).tolist() == [expected]

    def test_three_blobs_held_out(self):
        gen = np.random.default_rng(6)
        centers = [(0, 0), (5, 0), (0, 5)]
        X = np.vstack([gen.normal(c, 0.4, (30, 2)) for c in centers])
        labels = np.repeat([1, 2, 3], 30)
        test = np.vstack([gen.normal(c, 0.4, (5, 2)) for c in centers])
        test_labels = np.repeat([1, 2, 3], 5)
        model = ovo_train(X, labels, c=10.0, gamma=0.5)
        assert (model.predict_batch(test) == test_labels).all()

    def test_fourteen_classes_make_91_machines(self, small_features):
        X, labels = small_features
        model = ovo_train(X[:, :40], labels, c=8.0, gamma=0.125)
        assert len(model.machines) == 14 * 13 // 2 == 91

    def test_prediction_invariant_to_machine_order(self):
        gen = np.random.default_rng(7)
        X = np.vstack([gen.normal(c, 0.4, (8, 2)) for c in [(0, 0), (4, 0), (0, 4)]])
        labels = np.repeat([1, 2, 3], 8)
        model = ovo_train(X, labels, c=5.0, gamma=0.5)
        shuffled = layout_from_machines(model.classes,
                                        dict(reversed(list(model.machines.items()))),
                                        model.c, model.gamma)
        probe = gen.normal(1.5, 2.0, size=(20, 2))
        assert np.array_equal(model.predict_batch(probe), shuffled.predict_batch(probe))

    def test_thin_class_rejected(self):
        X = np.random.default_rng(9).normal(size=(4, 2))
        with pytest.raises(ValueError, match="fewer than 2"):
            ovo_train(X, np.array([1, 1, 2, 3]), c=1.0, gamma=1.0)


def _set_grid(monkeypatch, c_values, gamma_values) -> None:
    """Make grid_search sweep the given candidates instead of the defaults."""
    monkeypatch.setattr(svm, "DEFAULT_C_VALUES", c_values)
    monkeypatch.setattr(svm, "DEFAULT_GAMMA_VALUES", gamma_values)


class TestGridSearch:
    def _blobs(self, seed=10, n_per=9):
        gen = np.random.default_rng(seed)
        centers = [(0, 0), (6, 0), (0, 6)]
        X = np.vstack([gen.normal(c, 0.3, (n_per, 2)) for c in centers])
        return X, np.repeat([1, 2, 3], n_per)

    def test_single_candidate(self, monkeypatch):
        X, labels = self._blobs()
        _set_grid(monkeypatch, (4.0,), (0.5,))
        result = grid_search(X, labels, seed=0)
        assert (result.c, result.gamma) == (4.0, 0.5)
        assert result.table == [(4.0, 0.5, result.accuracy)]

    def test_perfect_pair_selected(self, monkeypatch):
        X, labels = self._blobs()
        _set_grid(monkeypatch, (8.0, 0.001), (0.5, 1e-9))
        result = grid_search(X, labels, seed=1)
        assert result.accuracy == 1.0
        model = ovo_train(X, labels, result.c, result.gamma)
        assert (model.predict_batch(X) == labels).all()

    def test_table_covers_every_cell(self, monkeypatch):
        X, labels = self._blobs()
        _set_grid(monkeypatch, (1.0, 4.0, 16.0), (0.25, 0.5))
        result = grid_search(X, labels, seed=2)
        assert len(result.table) == 6
        cells = {(c, g) for c, g, _ in result.table}
        assert cells == set(itertools.product((1.0, 4.0, 16.0), (0.25, 0.5)))

    def test_tie_prefers_smaller_c_then_gamma(self, monkeypatch):
        X, labels = self._blobs()
        _set_grid(monkeypatch, (16.0, 2.0), (1.0, 0.25))
        result = grid_search(X, labels, seed=3)
        ties = [row for row in result.table if row[2] == result.accuracy]
        assert (result.c, result.gamma) == min((c, g) for c, g, _ in ties)

    def test_infeasible_stratification(self):
        X = np.random.default_rng(11).normal(size=(5, 2))
        labels = np.array([1, 1, 1, 2, 2])
        with pytest.raises(ValueError, match="stratification"):
            grid_search(X, labels, seed=0)

    def test_stratified_folds_partition(self):
        labels = np.repeat([1, 2, 3, 4], 7)
        folds = stratified_folds(labels, svm.FOLDS, seed=4)
        assert len(folds) == 3
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(28))
        for fold in folds:
            counts = np.bincount(labels[fold], minlength=5)[1:]
            assert counts.min() >= 2  # 7 samples over 3 folds

    def test_default_grid_shape(self):
        # five ascending candidates each, none repeated
        for values in (svm.DEFAULT_C_VALUES, svm.DEFAULT_GAMMA_VALUES):
            assert len(set(values)) == 5 and list(values) == sorted(values)
        assert svm.FOLDS == 3


class TestSerialization:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(12)
        X = np.vstack([gen.normal(-1, 0.4, (8, 3)), gen.normal(1, 0.4, (8, 3))])
        labels = np.repeat([2, 5], 8)
        model = ovo_train(X, labels, c=3.0, gamma=0.5)
        path = tmp_path / "svm.json"
        model.save(path)
        loaded = SvmModel.load(path)
        assert loaded.classes == [2, 5]
        assert loaded.c == 3.0 and loaded.gamma == 0.5
        probe = gen.normal(size=(10, 3))
        assert np.array_equal(loaded.predict_batch(probe), model.predict_batch(probe))
        m0, m1 = model.machines[(2, 5)], loaded.machines[(2, 5)]
        assert np.array_equal(m0.support_vectors, m1.support_vectors)
        assert np.array_equal(m0.dual_coef, m1.dual_coef)
        assert m0.bias == m1.bias


def _assert_same_machine(machine, ref):
    """Bit-for-bit equality with the scalar reference."""
    assert machine.passes == ref.passes
    assert machine.bias == ref.bias
    assert machine.dual_coef.shape == ref.dual_coef.shape
    assert (machine.dual_coef == ref.dual_coef).all()
    assert (machine.support_vectors == ref.support_vectors).all()


def _assert_same_layout(model, ref):
    """Byte equality with the reference layout of the scalar machines."""
    assert model.pairs == ref.pairs
    for name in ("sv", "coef", "bias", "passes"):
        array, expected = getattr(model, name), getattr(ref, name)
        assert array.shape == expected.shape and array.tobytes() == expected.tobytes(), name


def _sequential_grid(X, labels, seed, train):
    """grid_search's table, one cell and one fold at a time with ``train``."""
    folds = stratified_folds(labels, svm.FOLDS, seed)
    table = []
    for c in sorted(svm.DEFAULT_C_VALUES):
        for gamma in sorted(svm.DEFAULT_GAMMA_VALUES):
            correct = 0
            try:
                for held in folds:
                    train_idx = np.setdiff1d(np.arange(len(labels)), held)
                    model = train(X[train_idx], labels[train_idx], c, gamma)
                    correct += int((model.predict_batch(X[held]) == labels[held]).sum())
                accuracy = correct / len(labels)
            except TrainingError:
                accuracy = 0.0
            table.append((c, gamma, accuracy))
    return table


@pytest.fixture
def flat_steps(monkeypatch):
    """Counts the scalar reference's pair steps along a flat direction."""
    count = [0]
    step = oracles.ScalarSmo._step

    def counting(self, i1, i2):
        if self.K[i1, i1] + self.K[i2, i2] - 2.0 * self.K[i1, i2] <= oracles._STEP_EPS:
            count[0] += 1
        return step(self, i1, i2)

    monkeypatch.setattr(oracles.ScalarSmo, "_step", counting)
    return count


# (columns of small_features, C, gamma): every alpha at the bound, a large C, and
# 10 columns whose duplicate rows give flat directions
EXACT_CASES = {
    "bound": (None, 2.0**-5, 2.0**-3),
    "large-c": (None, 2.0**7, 2.0**-9),
    "flat": (10, 2.0**7, 1.0),
}


class TestLockstepExactness:
    """The batched solver reproduces the scalar one-machine-at-a-time solver exactly."""

    @pytest.mark.parametrize("case", EXACT_CASES)
    def test_smo_train_matches_scalar(self, small_features, flat_steps, case):
        cols, c, gamma = EXACT_CASES[case]
        X, labels = small_features
        mask = (labels == 2) | (labels == 3)
        Xp, y = X[mask][:, :cols], np.where(labels[mask] == 2, 1.0, -1.0)
        ref = scalar_smo_train(Xp, y, c, gamma)
        _assert_same_machine(smo_train(Xp, y, c, gamma), ref)
        if case == "bound":
            assert (np.abs(ref.dual_coef) == c).sum() >= len(y) // 2
        if case == "flat":
            assert flat_steps[0] > 0

    @pytest.mark.parametrize("case", EXACT_CASES)
    def test_ovo_train_matches_scalar(self, small_features, flat_steps, case):
        cols, c, gamma = EXACT_CASES[case]
        X, labels = small_features
        ref = scalar_ovo_train(X[:, :cols], labels, c, gamma)
        model = ovo_train(X[:, :cols], labels, c, gamma)
        _assert_same_layout(model, ref)
        assert list(model.machines) == list(ref.machines)
        for pair, machine in model.machines.items():
            _assert_same_machine(machine, ref.machines[pair])
        if case == "bound":
            at_bound = sum(int((np.abs(m.dual_coef) == c).sum()) for m in ref.machines.values())
            assert at_bound >= len(labels) * 6  # half of the 12 samples of each machine
        if case == "flat":
            assert flat_steps[0] > 0

    def test_byte_equal_rows_share_one_column(self):
        gen = np.random.default_rng(8)
        X = np.vstack([gen.normal(c, 1.0, (6, 2)) for c in [(0, 0), (1.5, 0), (0, 1.5)]])
        X[0] = [0.0, 0.25]
        # rows byte-equal to rows of their own class, then X[0] with its zero's sign flipped
        X = np.vstack([X, X[[1, 2, 7]], [[-0.0, 0.25]]])
        labels = np.concatenate([np.repeat([1, 2, 3], 6), [1, 1, 2, 1]])
        model = ovo_train(X, labels, 0.5, 0.5)
        _assert_same_layout(model, scalar_ovo_train(X, labels, 0.5, 0.5))
        # every row is a support vector: 19 distinct rows of bytes, 19 columns
        columns = {row.tobytes() for row in model.sv}
        assert len(columns) == len(model.sv) == 19
        assert X[0].tobytes() != X[21].tobytes() and {X[0].tobytes(), X[21].tobytes()} <= columns

    def test_concave_directions_match_scalar(self, flat_steps):
        # a sigmoid Gram matrix is not positive semidefinite, so some pair directions
        # are concave and the step must pick the better end of the segment
        for seed in range(20):
            gen = np.random.default_rng(seed)
            X, y = gen.normal(size=(10, 2)), np.tile([1.0, -1.0], 5)
            gamma, coef0, c, tol = 2.0, float(gen.choice([-1.0, 0.0, 1.0])), 10.0, 1e-3
            K = np.tanh(gamma * (X @ X.T) + coef0)
            [outcome] = svm._Smo([K], [y], [c], tol).solve()
            ref = oracles.ScalarSmo(K, y, c, tol)
            try:
                steps = ref.solve(10 * len(y) ** 2)
            except ConvergenceError as exc:
                assert isinstance(outcome, ConvergenceError)
                assert str(outcome) == str(exc)
            else:
                alphas, raw, bias, passes = outcome
                assert (alphas == ref.alphas).all() and (raw == ref.raw).all()
                assert bias == ref.b and passes == steps
        assert flat_steps[0] > 0

    @pytest.mark.parametrize("cols, c, error", [(1, 2.0**7, ConvergenceError),
                                                (5, 1.0, DegenerateDataError)])
    def test_ovo_failure_matches_scalar(self, small_features, cols, c, error):
        X, labels = small_features
        with pytest.raises(error) as expected:
            scalar_ovo_train(X[:, :cols], labels, c, 1.0)
        with pytest.raises(error) as raised:
            ovo_train(X[:, :cols], labels, c, 1.0)
        if error is ConvergenceError:
            assert str(raised.value) == str(expected.value)

    def test_grid_table_matches_scalar_sequential(self, small_features):
        X, labels = small_features
        X = X[:, :40]
        result = grid_search(X, labels, seed=0)
        assert result.table == _sequential_grid(X, labels, 0, scalar_ovo_train)
        assert len({acc for _, _, acc in result.table}) > 3


class TestTrainingFailures:
    def test_convergence_error_names_n_c_and_gap(self, small_features, monkeypatch):
        X, labels = small_features
        mask = (labels == 2) | (labels == 3)
        y = np.where(labels[mask] == 2, 1.0, -1.0)
        # one pass of n pair steps
        monkeypatch.setattr(svm, "_step_budget", lambda n: n)
        with pytest.raises(ConvergenceError) as raised:
            smo_train(X[mask], y, c=2.0**7, gamma=2.0**-9)
        message = str(raised.value)
        assert "within 12 pair steps" in message
        assert "n=12" in message and "C=128.0" in message
        assert re.search(r"KKT gap \d\.\d{3}e[+-]\d+ > tol 1e-03", message)

    def test_zero_margin_cells_score_zero(self, small_features):
        # on 12 columns some cells, not all, have pairs with constant decisions
        X, labels = small_features
        X = X[:, :12]
        result = grid_search(X, labels, seed=0)
        assert result.table == _sequential_grid(X, labels, 0, ovo_train)
        assert 0 < sum(acc == 0.0 for _, _, acc in result.table) < len(result.table)

    def test_budget_failures_fail_only_their_cells(self, small_features, monkeypatch):
        X, labels = small_features
        X = X[:, :40]
        unlimited = grid_search(X, labels, seed=0).table
        # 120 pair steps: enough for every machine at C = 0.5, too few for some at large C
        monkeypatch.setattr(svm, "_step_budget", lambda n: np.full_like(n, 120))
        limited = grid_search(X, labels, seed=0).table
        assert limited == _sequential_grid(X, labels, 0, ovo_train)
        failed = {(c, gamma) for c, gamma, acc in limited if acc == 0.0}
        assert failed and all(c > 0.5 for c, _ in failed) and len(failed) < len(limited)
        for (c, gamma, acc), (_, _, before) in zip(limited, unlimited):
            assert acc == (0.0 if (c, gamma) in failed else before)


def _constant(bias: float) -> BinarySvm:
    """A machine whose decision is ``bias`` everywhere."""
    return BinarySvm(support_vectors=np.zeros((1, 1)), dual_coef=np.zeros(1), bias=bias,
                     c=1.0, gamma=1.0)


class TestTieBreak:
    # a vote cycle: 2 beats 5, 5 beats 9, 9 beats 2, so every class has one vote
    def _cycle(self, f25, f59, f29):
        machines = {(2, 5): _constant(f25), (5, 9): _constant(f59), (2, 9): _constant(f29)}
        return layout_from_machines([2, 5, 9], machines, c=1.0, gamma=1.0)

    def test_equal_votes_larger_magnitude_wins(self):
        model = self._cycle(0.5, 0.9, -0.2)
        assert model.predict_batch(np.zeros((3, 1))).tolist() == [5, 5, 5]

    def test_equal_votes_equal_magnitudes_lowest_class(self):
        model = self._cycle(0.5, 0.5, -0.5)
        assert model.predict_batch(np.zeros((2, 1))).tolist() == [2, 2]

    def test_two_way_tie_below_a_third_class(self):
        # 9 beats both others; 2 and 5 tie on votes and magnitude
        model = layout_from_machines([2, 5, 9], {
            (2, 5): _constant(0.0), (2, 9): _constant(-0.5), (5, 9): _constant(-0.5)},
            c=1.0, gamma=1.0)
        assert model.predict_batch(np.zeros((1, 1))).tolist() == [9]

    @pytest.mark.parametrize("seed", range(5))
    def test_ranking_matches_tuple_order(self, seed):
        gen = np.random.default_rng(seed)
        classes = [1, 3, 4, 8, 11]
        # a machine per pair whose kernel is 1 at x = 1 and underflows to 0 at x = 0, -1,
        # with few distinct coefficients and offsets for many vote and magnitude ties
        machines = {pair: BinarySvm(support_vectors=np.ones((1, 1)),
                                    dual_coef=gen.choice([-1.0, 0.0, 1.0], size=1),
                                    bias=float(gen.choice([-0.5, 0.5])), c=1.0, gamma=1e3)
                    for pair in itertools.combinations(classes, 2)}
        model = layout_from_machines(classes, machines, c=1.0, gamma=1e3)
        X = gen.choice([-1.0, 0.0, 1.0], size=(40, 1))
        votes = {cls: np.zeros(len(X)) for cls in classes}
        magnitude = {cls: np.zeros(len(X)) for cls in classes}
        for (a, b), machine in machines.items():
            f = machine_decision(machine, X)
            for r, value in enumerate(f):
                winner = a if value > 0.0 else b
                votes[winner][r] += 1
                magnitude[winner][r] += abs(value)
        expected = [min(classes, key=lambda cls: (-votes[cls][r], -magnitude[cls][r], cls))
                    for r in range(len(X))]
        assert model.predict_batch(X).tolist() == expected


@pytest.fixture(scope="module", params=[100, 733], ids=lambda m: f"width{m}")
def seeded_model(request):
    """A 14-class model on seeded blobs of the given width, 148 wider-spread probe rows,
    and the machines the scalar solver trains on the same problems.

    Some training rows are no support vector, so machines share some of their rows.
    """
    m = request.param
    gen = np.random.default_rng(42)
    centers = gen.normal(size=(14, m))
    y = np.repeat(np.arange(1, 15), 20)
    X = centers[y - 1] + gen.normal(scale=0.3, size=(len(y), m))
    probe = centers[gen.integers(0, 14, size=148)] + gen.normal(scale=1.0, size=(148, m))
    _, machines = scalar_ovo_machines(X, y, 8.0, 0.1 / m)
    return ovo_train(X, y, 8.0, 0.1 / m), probe, machines


class TestSharedLayout:
    """One kernel block per prediction agrees with one block per machine."""

    def test_distinct_rows_shared(self, seeded_model):
        model, _, machines = seeded_model
        stored = sum(len(machine.dual_coef) for machine in machines.values())
        assert len(model.pairs) == 91
        assert len({row.tobytes() for row in model.sv}) == len(model.sv) < stored
        for k, pair in enumerate(model.pairs):
            machine = machines[pair]
            used = np.flatnonzero(model.coef[k])
            assert (dict(zip(map(bytes, model.sv[used]), model.coef[k, used]))
                    == dict(zip(map(bytes, machine.support_vectors), machine.dual_coef)))
            assert model.bias[k] == machine.bias
            assert model.passes[k] == machine.passes > 0

    def test_batch_matches_per_machine(self, seeded_model):
        model, probe, _ = seeded_model
        assert np.array_equal(model.predict_batch(probe), per_machine_predict(model, probe))

    def test_single_rows_match_per_machine(self, seeded_model):
        model, probe, _ = seeded_model
        for row in probe[:20]:
            assert model.predict_batch(row).tolist() == per_machine_predict(model, row).tolist()

    def test_decisions_match_each_machine(self, seeded_model):
        model, probe, machines = seeded_model
        F = model.decisions(probe)
        for k, pair in enumerate(model.pairs):
            assert np.abs(F[k] - machine_decision(machines[pair], probe)).max() <= 1e-12

    def test_loaded_model_predicts_as_saved(self, seeded_model, tmp_path):
        model, probe, machines = seeded_model
        model.save(tmp_path / "svm.json")
        loaded = SvmModel.load(tmp_path / "svm.json")
        assert loaded.decisions(probe).tobytes() == model.decisions(probe).tobytes()
        assert np.array_equal(loaded.predict_batch(probe), model.predict_batch(probe))
        rebuilt = loaded.machines
        for pair, machine in machines.items():
            delta = machine_decision(rebuilt[pair], probe) - machine_decision(machine, probe)
            assert np.abs(delta).max() <= 1e-12

    def test_load_builds_no_machine_copies(self, seeded_model, tmp_path, monkeypatch):
        model, _, _ = seeded_model
        model.save(tmp_path / "svm.json")
        built = []
        init = BinarySvm.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BinarySvm, "__init__", counting)
        loaded = SvmModel.load(tmp_path / "svm.json")
        assert built == []
        arrays = {name for name, value in vars(loaded).items() if isinstance(value, np.ndarray)}
        assert arrays == {"sv", "coef", "bias", "passes", "sides", "sv_sq"}
        assert loaded.passes.tolist() == [0] * 91

    # Integer points and gamma = 1e3 make every kernel value exactly 1 (same point)
    # or 0 (underflow), and coefficients are multiples of 0.5, so decision values are
    # exact on both paths and every vote and magnitude tie must break alike.
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_machine_on_exact_models(self, data):
        dim = data.draw(st.integers(1, 3))
        classes = sorted(data.draw(st.sets(st.integers(1, 14), min_size=2, max_size=6)))
        points = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        pairs = list(itertools.combinations(classes, 2))
        machines = {}
        for pair in data.draw(st.permutations(pairs)):
            rows = data.draw(st.lists(points, max_size=4))
            machines[pair] = BinarySvm(
                support_vectors=np.array(rows, dtype=np.float64).reshape(len(rows), dim),
                dual_coef=np.array(data.draw(st.lists(
                    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                    min_size=len(rows), max_size=len(rows)))),
                bias=data.draw(st.sampled_from([-0.5, 0.0, 0.5])), c=1.0, gamma=1e3)
        model = layout_from_machines(classes, machines, c=1.0, gamma=1e3)
        X = np.array(data.draw(st.lists(points, min_size=1, max_size=8)), dtype=np.float64)
        assert model.predict_batch(X).tolist() == per_machine_predict(model, X).tolist()
        F = model.decisions(X)
        for k, pair in enumerate(model.pairs):
            assert F[k].tolist() == machine_decision(machines[pair], X).tolist()


class TestKernelCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Per RBF block computed, whether it was a Gram matrix (both arguments the same)."""
        calls = []
        real = svm._rbf

        def counting(A, a_sq, B, gamma):
            calls.append(A is B)
            return real(A, a_sq, B, gamma)

        monkeypatch.setattr(svm, "_rbf", counting)
        return calls

    def test_one_kernel_block_per_prediction(self, small_features, calls):
        X, labels = small_features
        model = ovo_train(X[:, :40], labels, c=8.0, gamma=0.125)
        assert len(model.machines) == 91
        calls.clear()
        model.predict_batch(X[:, :40])
        model.predict_batch(X[0, :40])
        assert calls == [False, False]

    def test_grid_scores_each_cell_with_one_block(self, monkeypatch, small_features, calls):
        # one CPU: the grid's jobs run inline, where the calls are counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        X, labels = small_features
        result = grid_search(X[:, :40], labels, seed=0)
        assert all(accuracy > 0.0 for _, _, accuracy in result.table)
        # one held-out block per (fold, C, gamma) and one Gram matrix per (fold, gamma, pair)
        assert calls.count(False) == svm.FOLDS * len(result.table) == 75
        assert calls.count(True) == svm.FOLDS * len(svm.DEFAULT_GAMMA_VALUES) * 91
