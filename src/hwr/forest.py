"""Random forest: bootstrap-trained CART trees, probability averaging.

Each tree grows on an n-sample bootstrap; every node draws floor(sqrt(d))
distinct candidate features from the tree's seeded stream (consumed in
depth-first order) and splits at the midpoint threshold with the largest
Gini impurity decrease.  Gain ties break toward the lower feature index,
then the lower threshold.  Nodes stop at purity, at fewer than 2 samples,
when no positive-gain split exists, or at the optional depth cap.

The forest predicts by averaging the per-tree leaf distributions (soft
voting) and taking the most probable class, ties toward the lowest id.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import dataset
from .labels import N_CLASSES

DEFAULT_TREE_COUNTS = (50, 100, 2000)

_GAIN_EPS = 1e-12


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: np.ndarray | None = None  # leaf class counts, 1-based classes at index c-1

    @property
    def is_leaf(self) -> bool:
        return self.counts is not None

    def leaf_for(self, x: np.ndarray) -> "TreeNode":
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"counts": [int(c) for c in self.counts]}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TreeNode":
        if "counts" in doc:
            return cls(counts=np.array(doc["counts"], dtype=np.int64))
        return cls(
            feature=int(doc["feature"]),
            threshold=float(doc["threshold"]),
            left=cls.from_dict(doc["left"]),
            right=cls.from_dict(doc["right"]),
        )


def gini(counts) -> float:
    """Gini impurity 1 - sum(p_i^2) of a class-count vector."""
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or (c < 0).any():
        raise ValueError(f"counts must be a non-negative vector, got {counts!r}")
    total = c.sum()
    if total < 1:
        raise ValueError("counts must sum to at least 1")
    p = c / total
    return float(1.0 - p @ p)


def _best_split(
    X: np.ndarray, y0: np.ndarray, features: np.ndarray, n_classes: int
) -> tuple[float, int, float] | None:
    """Highest Gini-decrease (gain, feature, threshold) over midpoint cuts."""
    n = y0.shape[0]
    total_counts = np.bincount(y0, minlength=n_classes).astype(np.float64)
    parent = gini(total_counts)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y0] = 1.0
    best: tuple[float, int, float] | None = None
    for f in features:
        v = X[:, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        cuts = np.nonzero(sv[:-1] < sv[1:])[0]
        if cuts.size == 0:
            continue
        left = np.cumsum(onehot[order], axis=0)[cuts]
        nl = (cuts + 1).astype(np.float64)
        nr = n - nl
        right = total_counts[None, :] - left
        gini_l = 1.0 - (left * left).sum(axis=1) / (nl * nl)
        gini_r = 1.0 - (right * right).sum(axis=1) / (nr * nr)
        gains = parent - (nl * gini_l + nr * gini_r) / n
        pick = int(np.argmax(gains))
        gain = float(gains[pick])
        if gain <= _GAIN_EPS:
            continue
        threshold = float(0.5 * (sv[cuts[pick]] + sv[cuts[pick] + 1]))
        if best is None or gain > best[0] + _GAIN_EPS:
            best = (gain, int(f), threshold)
    return best


def grow_tree(
    X: np.ndarray,
    labels: np.ndarray,
    tree_seed,
    n_classes: int = N_CLASSES,
    feature_subset: int | None = None,
    max_depth: int | None = None,
) -> TreeNode:
    """CART tree over 1-based labels; candidate features drawn per node."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(labels, dtype=np.intp)
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"{y.shape[0]} labels for {X.shape[0]} samples")
    if y.shape[0] < 1:
        raise ValueError("need at least one sample")
    if y.min() < 1 or y.max() > n_classes:
        raise ValueError(f"labels must lie in [1, {n_classes}]")
    d = X.shape[1]
    subset = feature_subset if feature_subset is not None else max(1, math.floor(math.sqrt(d)))
    subset = min(subset, d)
    gen = np.random.default_rng(tree_seed)
    y0 = y - 1

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        counts = np.bincount(y0[idx], minlength=n_classes)
        if (
            idx.shape[0] < 2
            or (counts > 0).sum() == 1
            or (max_depth is not None and depth >= max_depth)
        ):
            return TreeNode(counts=counts)
        features = np.sort(gen.choice(d, size=subset, replace=False))
        best = _best_split(X[idx], y0[idx], features, n_classes)
        if best is None:
            return TreeNode(counts=counts)
        _, feature, threshold = best
        goes_left = X[idx, feature] <= threshold
        return TreeNode(
            feature=feature,
            threshold=threshold,
            left=build(idx[goes_left], depth + 1),
            right=build(idx[~goes_left], depth + 1),
        )

    return build(np.arange(X.shape[0]), 0)


@dataclass
class ForestModel:
    FORMAT = "hwr-rf/1"

    trees: list[TreeNode]
    d: int
    seed: int
    n_classes: int = N_CLASSES

    @property
    def m(self) -> int:
        return len(self.trees)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.array([rf_predict(self, x) for x in X], dtype=np.intp)

    def save(self, path: str | os.PathLike) -> None:
        dataset.write_model(path, {
            "format": self.FORMAT,
            "d": self.d,
            "seed": self.seed,
            "n_classes": self.n_classes,
            "trees": [t.to_dict() for t in self.trees],
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "ForestModel":
        return cls(
            trees=[TreeNode.from_dict(t) for t in doc["trees"]],
            d=int(doc["d"]),
            seed=int(doc["seed"]),
            n_classes=int(doc["n_classes"]),
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ForestModel":
        return dataset.read_model(path, cls)


def rf_train(
    X: np.ndarray,
    labels: np.ndarray,
    m: int,
    seed: int,
    n_classes: int = N_CLASSES,
    max_depth: int | None = None,
) -> ForestModel:
    """Grow m trees on independent bootstraps; streams derive from (seed, b)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape[0] != X.shape[0]:
        raise ValueError(f"{labels.shape[0]} labels for {X.shape[0]} samples")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if m < 1:
        raise ValueError(f"tree count must be >= 1, got {m}")
    n = X.shape[0]
    trees = []
    for b in range(m):
        boot = bootstrap_indices(seed, b, n)
        trees.append(
            grow_tree(X[boot], labels[boot], tree_seed=[seed, b, 1],
                      n_classes=n_classes, max_depth=max_depth)
        )
    return ForestModel(trees=trees, d=X.shape[1], seed=seed, n_classes=n_classes)


def bootstrap_indices(seed: int, tree_index: int, n: int) -> np.ndarray:
    """The exact bootstrap sample used for tree `tree_index`."""
    return np.random.default_rng([seed, tree_index, 0]).integers(0, n, size=n)


def rf_predict_proba(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Unweighted mean of per-tree leaf class distributions."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.d:
        raise ValueError(f"input has shape {x.shape}, forest expects length {model.d}")
    probs = np.zeros(model.n_classes)
    for tree in model.trees:
        counts = tree.leaf_for(x).counts
        probs += counts / counts.sum()
    return probs / model.m


def rf_predict(model: ForestModel, x: np.ndarray) -> int:
    """Most probable class id of one sample; ties break toward the lowest id."""
    return int(np.argmax(rf_predict_proba(model, x))) + 1
