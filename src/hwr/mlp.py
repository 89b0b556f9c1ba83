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
from .labels import N_CLASSES, class_ids

_PROB_FLOOR = 1e-15


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class MlpModel:
    FORMAT = "hwr-mlp/2"

    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (o, h)
    b2: np.ndarray  # (o,)

    def __post_init__(self) -> None:
        if self.o != N_CLASSES:
            raise ValueError(f"o is {self.o}, not the {N_CLASSES} classes")

    @property
    def d(self) -> int:
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
            "m": self.d,
            "h": self.h,
            "o": self.o,
            "w1": dataset.pack(self.w1),
            "b1": dataset.pack(self.b1),
            "w2": dataset.pack(self.w2),
            "b2": dataset.pack(self.b2),
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "MlpModel":
        d, h, o = (dataset.size(doc, key) for key in ("m", "h", "o"))
        return cls(
            w1=dataset.unpack(doc["w1"], h, d),
            b1=dataset.unpack(doc["b1"], h),
            w2=dataset.unpack(doc["w2"], o, h),
            b2=dataset.unpack(doc["b2"], o),
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
        dataset.positive("learning_rate", self.learning_rate)
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def mlp_init(d: int, h: int, o: int, seed: int) -> MlpModel:
    """Uniform Glorot weights, zero biases; deterministic per seed."""
    if min(d, h) < 1:
        raise ValueError(f"layer sizes must be >= 1, got d={d}, h={h}")
    # built before it is drawn, so an o other than N_CLASSES fails at once
    model = MlpModel(w1=np.empty((h, d)), b1=np.zeros(h), w2=np.empty((o, h)), b2=np.zeros(o))
    gen = np.random.default_rng(seed)
    for w in (model.w1, model.w2):
        limit = math.sqrt(6.0 / sum(w.shape))
        w[...] = gen.uniform(-limit, limit, size=w.shape)
    return model


def forward(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (n, h) and output probabilities (n, o) of the rows of X,
    ``dataset.rows`` of the model's width d."""
    hidden = np.maximum(0.0, dataset.rows(X, model.d) @ model.w1.T + model.b1)
    logits = hidden @ model.w2.T + model.b2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return hidden, e / e.sum(axis=1, keepdims=True)


def _check_training_data(model: MlpModel, X, labels) -> tuple[np.ndarray, np.ndarray]:
    X = dataset.rows(X, model.d)
    y = class_ids(labels, X.shape[0])
    if not y.size:
        raise ValueError("need at least one training sample")
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
            for name, grad in grads.items():  # fresh arrays, so scaled in place
                grad *= cfg.learning_rate
                param = getattr(out, name)
                param -= grad
    return out
