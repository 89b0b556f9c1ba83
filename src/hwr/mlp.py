"""Multilayer perceptron: one ReLU hidden layer, softmax output, SGD.

The architecture is fixed at three layers (input, hidden, output) and the
loss is categorical cross-entropy.  Labels are 1-based class ids throughout.
Hyperparameters the source material leaves open default to lr 0.01, batch
size 32, 200 epochs, uniform Glorot init with zero biases; plain SGD with no
momentum or weight decay.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import dataset
from .labels import N_CLASSES

HIDDEN_LAYER_SWEEP = (50, 100, 150, 350)

_PROB_FLOOR = 1e-15


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class MlpModel:
    FORMAT = "hwr-mlp/1"

    w1: np.ndarray  # (h, m)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (o, h)
    b2: np.ndarray  # (o,)

    @property
    def m(self) -> int:
        return self.w1.shape[1]

    @property
    def h(self) -> int:
        return self.w1.shape[0]

    @property
    def o(self) -> int:
        return self.w2.shape[0]

    def copy(self) -> "MlpModel":
        return MlpModel(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def save(self, path: str | os.PathLike) -> None:
        dataset.write_model(path, {
            "format": self.FORMAT,
            "m": self.m,
            "h": self.h,
            "o": self.o,
            "w1": self.w1.ravel().tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.ravel().tolist(),
            "b2": self.b2.tolist(),
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "MlpModel":
        m, h, o = int(doc["m"]), int(doc["h"]), int(doc["o"])
        return cls(
            w1=np.array(doc["w1"], dtype=np.float64).reshape(h, m),
            b1=np.array(doc["b1"], dtype=np.float64).reshape(h),
            w2=np.array(doc["w2"], dtype=np.float64).reshape(o, h),
            b2=np.array(doc["b2"], dtype=np.float64).reshape(o),
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "MlpModel":
        return dataset.read_model(path, cls)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Most probable class id per row; ties break toward the lowest id."""
        _, probs = forward(self, X)
        return np.argmax(probs, axis=1) + 1


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def mlp_init(m: int, h: int, o: int, seed: int) -> MlpModel:
    """Uniform Glorot weights, zero biases; deterministic per seed."""
    if min(m, h, o) < 1:
        raise ValueError(f"layer sizes must be >= 1, got m={m}, h={h}, o={o}")
    gen = np.random.default_rng(seed)
    lim1 = math.sqrt(6.0 / (m + h))
    lim2 = math.sqrt(6.0 / (h + o))
    return MlpModel(
        w1=gen.uniform(-lim1, lim1, size=(h, m)),
        b1=np.zeros(h),
        w2=gen.uniform(-lim2, lim2, size=(o, h)),
        b2=np.zeros(o),
    )


def _check_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.m:
        raise ValueError(f"X has shape {arr.shape}, model expects {model.m} columns")
    return arr


def forward(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (n, h) and output probabilities (n, o) of the rows of X.

    X must be a 2-D matrix with one column per model input; a single
    sample is a 1-row matrix.
    """
    hidden = np.maximum(0.0, _check_batch(model, X) @ model.w1.T + model.b1)
    logits = hidden @ model.w2.T + model.b2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return hidden, e / e.sum(axis=1, keepdims=True)


def loss(probs: np.ndarray, label: int) -> float:
    """Categorical cross-entropy of a distribution against a 1-based label."""
    p = np.asarray(probs, dtype=np.float64)
    if not 1 <= label <= p.shape[0]:
        raise ValueError(f"label {label} out of range [1, {p.shape[0]}]")
    return float(-math.log(max(p[label - 1], _PROB_FLOOR)))


def _check_training_data(model: MlpModel, X, labels) -> tuple[np.ndarray, np.ndarray]:
    X = _check_batch(model, np.asarray(X, dtype=np.float64))
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError(f"labels have shape {y.shape}, expected ({X.shape[0]},)")
    y = y.astype(np.intp)
    if y.min() < 1 or y.max() > model.o:
        raise ValueError(f"labels must lie in [1, {model.o}]")
    return X, y


def batch_gradients(
    model: MlpModel, X: np.ndarray, labels: np.ndarray
) -> tuple[dict[str, np.ndarray], float]:
    """Exact gradients of the mean cross-entropy over the batch."""
    X, y = _check_training_data(model, X, labels)
    n = X.shape[0]
    hidden, probs = forward(model, X)
    mean_loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), y - 1], _PROB_FLOOR))))
    delta = probs.copy()
    delta[np.arange(n), y - 1] -= 1.0
    delta /= n
    back = delta @ model.w2
    back[hidden <= 0.0] = 0.0
    grads = {
        "w2": delta.T @ hidden,
        "b2": delta.sum(axis=0),
        "w1": back.T @ X,
        "b1": back.sum(axis=0),
    }
    return grads, mean_loss


def batch_loss(model: MlpModel, X: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the model over (X, labels)."""
    X, y = _check_training_data(model, X, labels)
    _, probs = forward(model, X)
    picked = probs[np.arange(X.shape[0]), y - 1]
    return float(-np.mean(np.log(np.maximum(picked, _PROB_FLOOR))))


def train(model: MlpModel, X, labels, cfg: TrainConfig) -> MlpModel:
    """Mini-batch SGD; returns the final-epoch model, input left untouched."""
    X, y = _check_training_data(model, X, labels)
    out = model.copy()
    gen = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    for epoch in range(cfg.epochs):
        order = gen.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grads, batch = batch_gradients(out, X[idx], y[idx])
            if not math.isfinite(batch):
                raise TrainingDivergedError(
                    f"non-finite loss {batch} at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            out.w1 -= cfg.learning_rate * grads["w1"]
            out.b1 -= cfg.learning_rate * grads["b1"]
            out.w2 -= cfg.learning_rate * grads["w2"]
            out.b2 -= cfg.learning_rate * grads["b2"]
    return out
