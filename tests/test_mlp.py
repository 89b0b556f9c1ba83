from __future__ import annotations

import math

import numpy as np
import pytest

from hwr import cli, mlp
from hwr.mlp import (
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    batch_gradients,
    forward,
    mlp_init,
    train,
)


def _blobs_2class(n_per=20, seed=0):
    gen = np.random.default_rng(seed)
    X = np.vstack([
        gen.normal((-2.0, 0.0), 0.4, size=(n_per, 2)),
        gen.normal((2.0, 0.0), 0.4, size=(n_per, 2)),
    ])
    y = np.repeat([1, 2], n_per)
    return X, y


def test_n_classes_constant():
    assert mlp.N_CLASSES == 14


class TestInit:
    def test_parameter_count(self):
        model = mlp_init(100, 100, 14, seed=0)
        count = sum(p.size for p in (model.w1, model.b1, model.w2, model.b2))
        assert count == 100 * 100 + 100 + 100 * 14 + 14 == 11514

    def test_biases_zero(self):
        model = mlp_init(7, 5, 14, seed=1)
        assert (model.b1 == 0).all() and (model.b2 == 0).all()

    def test_seed_determinism(self):
        a, b = mlp_init(6, 4, 14, seed=9), mlp_init(6, 4, 14, seed=9)
        c = mlp_init(6, 4, 14, seed=10)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
        assert not np.array_equal(a.w1, c.w1)

    @pytest.mark.parametrize("o", [2, 13, 15])
    def test_output_width_is_the_class_count(self, o):
        with pytest.raises(ValueError, match=f"o is {o}, not the 14 classes"):
            mlp_init(4, 3, o, seed=0)
        with pytest.raises(ValueError, match=f"o is {o}, not the 14 classes"):
            MlpModel(np.zeros((3, 4)), np.zeros(3), np.zeros((o, 3)), np.zeros(o))

    def test_glorot_bounds(self):
        model = mlp_init(50, 30, 14, seed=2)
        assert np.abs(model.w1).max() <= math.sqrt(6 / 80)
        assert np.abs(model.w2).max() <= math.sqrt(6 / 44)


class TestTrainConfig:
    def test_defaults_are_the_documented_ones_and_the_cli_defaults(self):
        """lr 0.01, batch size 32, 200 epochs, as the module docstring and `hwr train` say."""
        cfg = TrainConfig()
        assert (cfg.learning_rate, cfg.epochs, cfg.batch_size, cfg.seed) == (0.01, 200, 32, 0)
        args = cli.build_parser().parse_args(["train", "--in", "x", "--labels", "y",
                                              "--classifier", "mlp", "--out", "z"])
        assert (args.lr, args.epochs, args.batch_size) == (0.01, 200, 32)

    @pytest.mark.parametrize("d, h", [(0, 3), (4, 0)])
    def test_layer_of_size_0_refused(self, d, h):
        with pytest.raises(ValueError, match=f"^layer sizes must be >= 1, got d={d}, h={h}$"):
            mlp_init(d, h, 14, seed=0)


class TestForward:
    def test_zero_model_uniform_probs(self):
        model = MlpModel(np.zeros((5, 3)), np.zeros(5), np.zeros((14, 5)), np.zeros(14))
        _, probs = forward(model, np.array([[1.0, -2.0, 3.0]]))
        assert np.allclose(probs, 1 / 14)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_hidden_nonnegative(self):
        model = mlp_init(8, 6, 14, seed=3)
        hidden, _ = forward(model, np.random.default_rng(4).normal(size=(1, 8)))
        assert (hidden >= 0).all()

    def test_single_unit_toy(self):
        model = MlpModel(np.array([[2.0]]), np.array([-1.0]),
                         np.zeros((14, 1)), np.zeros(14))
        hidden, _ = forward(model, np.array([[2.0]]))
        assert hidden.tolist() == [[3.0]]

    def test_length_mismatch(self):
        model = mlp_init(4, 3, 14, seed=0)
        with pytest.raises(ValueError, match="columns"):
            forward(model, np.zeros((1, 5)))

    def test_probs_sum_to_one(self):
        model = mlp_init(10, 7, 14, seed=5)
        _, probs = forward(model, np.random.default_rng(6).normal(size=(1, 10)) * 50)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert (probs > 0).all() and (probs < 1).all()


def _loss(logits, label: int) -> float:
    """batch_gradients' loss on one sample of a model whose output is softmax(logits)."""
    o = len(logits)
    model = MlpModel(w1=np.zeros((1, 1)), b1=np.zeros(1), w2=np.zeros((o, 1)),
                     b2=np.asarray(logits, dtype=np.float64))
    return batch_gradients(model, np.zeros((1, 1)), [label])[1]


class TestLoss:
    def test_certain_prediction(self):
        logits = np.zeros(14)
        logits[6] = 1000.0  # probability 1.0 on class 7, 0.0 elsewhere
        assert _loss(logits, 7) == 0.0

    def test_uniform(self):
        assert _loss(np.zeros(14), 3) == pytest.approx(math.log(14), abs=1e-12)

    def test_half(self):
        logits = np.zeros(14)
        logits[0] = math.log(13)  # probability 0.5 on class 1
        assert _loss(logits, 1) == pytest.approx(0.6931, abs=1e-4)

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            _loss(np.zeros(14), 0)
        with pytest.raises(ValueError):
            _loss(np.zeros(14), 15)

    def test_floor_guards_log(self):
        logits = np.zeros(14)
        logits[0] = 1000.0  # probability 0.0 on class 2
        assert _loss(logits, 2) == pytest.approx(-math.log(1e-15))


from oracles import relative_gradient_errors


class TestTraining:
    def test_gradient_check_at_random_parameters(self):
        gen = np.random.default_rng(7)
        model = mlp_init(6, 5, 14, seed=8)
        X = gen.normal(size=(5, 6))
        y = gen.integers(1, 5, size=5)
        errors = relative_gradient_errors(model, X, y)
        assert errors.max() < 1e-6

    def test_gradient_check_at_trained_parameters(self):
        gen = np.random.default_rng(17)
        X = gen.normal(size=(5, 6))
        y = gen.integers(1, 5, size=5)
        model = train(mlp_init(6, 5, 14, seed=8), X, y,
                      TrainConfig(epochs=30, batch_size=5, seed=9))
        errors = relative_gradient_errors(model, X, y)
        assert errors.max() < 1e-6

    def test_separable_blobs_reach_full_accuracy(self):
        X, y = _blobs_2class()
        model = mlp_init(2, 8, 14, seed=0)
        model = train(model, X, y, TrainConfig(learning_rate=0.05, epochs=100, seed=1))
        assert np.array_equal(model.predict_batch(X), y)

    def test_zero_epochs_unchanged(self):
        X, y = _blobs_2class(5)
        model = mlp_init(2, 4, 14, seed=3)
        out = train(model, X, y, TrainConfig(epochs=0, seed=0))
        assert np.array_equal(out.w1, model.w1) and np.array_equal(out.w2, model.w2)

    def test_input_model_not_mutated(self):
        X, y = _blobs_2class(5)
        model = mlp_init(2, 4, 14, seed=3)
        w1_before = model.w1.copy()
        train(model, X, y, TrainConfig(epochs=3, seed=0))
        assert np.array_equal(model.w1, w1_before)

    def test_training_determinism_bitwise(self):
        X, y = _blobs_2class(10, seed=5)
        cfg = TrainConfig(epochs=20, seed=11)
        a = train(mlp_init(2, 6, 14, seed=4), X, y, cfg)
        b = train(mlp_init(2, 6, 14, seed=4), X, y, cfg)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b1, b.b1)
        assert np.array_equal(a.w2, b.w2) and np.array_equal(a.b2, b.b2)

    def test_loss_nonincreasing_first_epoch_small_lr(self, small_features):
        X, y = small_features
        X = X[:, :50]
        model = mlp_init(50, 10, 14, seed=6)
        before = batch_gradients(model, X, y)[1]
        trained = train(model, X, y, TrainConfig(learning_rate=1e-3, epochs=1, seed=7))
        after = batch_gradients(trained, X, y)[1]
        assert after <= before

    def test_nonfinite_loss_aborts(self):
        X, y = _blobs_2class(5)
        model = mlp_init(2, 4, 14, seed=3)
        model.w1[:] = 1e308  # force overflow to inf/nan in the forward pass
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train(model, X * 1e308, y, TrainConfig(epochs=1, seed=0))

    def test_shape_validation(self):
        model = mlp_init(3, 4, 14, seed=0)
        with pytest.raises(ValueError):
            train(model, np.zeros((4, 3)), np.array([1, 2, 1]), TrainConfig())
        with pytest.raises(ValueError):
            train(model, np.zeros((2, 3)), np.array([1, 15]), TrainConfig())


class TestPredict:
    def test_uniform_tie_breaks_to_class_one(self):
        model = MlpModel(np.zeros((4, 3)), np.zeros(4), np.zeros((14, 4)), np.zeros(14))
        assert model.predict_batch(np.array([[0.5, -0.5, 1.0]])).tolist() == [1]

    def test_concentrated_probability(self):
        model = MlpModel(np.eye(3), np.zeros(3), np.zeros((14, 3)), np.zeros(14))
        model.b2[6] = 50.0  # class 7 logit dominates
        assert model.predict_batch(np.zeros((1, 3))).tolist() == [7]

    def test_predict_is_argmax_of_proba(self):
        model = mlp_init(5, 6, 14, seed=12)
        gen = np.random.default_rng(13)
        X = gen.normal(size=(10, 5))
        _, probs = forward(model, X)
        assert np.array_equal(model.predict_batch(X), np.argmax(probs, axis=1) + 1)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = mlp_init(6, 5, 14, seed=14)
        path = tmp_path / "mlp.json"
        model.save(path)
        loaded = MlpModel.load(path)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))

    def test_format_tag_checked(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"format": "nope"}')
        with pytest.raises(ValueError, match="format 'nope' is not"):
            MlpModel.load(tmp_path / "bad.json")

    def test_config_validation(self):
        smallest = TrainConfig(epochs=0, batch_size=1)  # the boundaries are accepted
        assert (smallest.epochs, smallest.batch_size) == (0, 1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match=r"^batch_size must be >= 1, got 0$"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match=r"^epochs must be >= 0, got -1$"):
            TrainConfig(epochs=-1)
