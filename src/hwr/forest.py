"""Random forest: bootstrap-trained CART trees, probability averaging.

Each tree grows on an n-sample bootstrap; every node draws floor(sqrt(d))
distinct candidate features from the tree's seeded stream (consumed in
depth-first order) and splits at the midpoint threshold with the largest
Gini impurity decrease.  Gain ties break toward the lower feature index,
then the lower threshold.  Nodes stop at purity, at fewer than 2 samples,
when no positive-gain split exists, or at the optional depth cap.

A node's split search is one vectorized pass over its k candidate
features.  Each tree keeps X transposed, so a node gathers only its (k, n)
block and sorts all k rows at once.  The result is exactly that of scanning
the features one at a time (the reference in tests/oracles.py):
- the samples left of a cut are those whose value is at most the cut's, so
  how the sort orders equal values does not matter;
- the left and right class-count sums in the Gini terms are integers, exact
  in float64: for each prefix, sum_c L_c^2 is a running sum of 2*rank+1
  (rank: the sample's rank among earlier samples of its class), sum_c T_c*L_c
  a running sum of the node count of each sample's class, and sum_c R_c^2 =
  sum_c T_c^2 - 2*sum_c T_c*L_c + sum_c L_c^2;
- the impurities and gains then take the same elementwise float operations
  in the same order as the scan;
- each feature's best cut is the first maximum over its cut positions, and
  the features are then compared in ascending order with the same epsilon,
  so every tie breaks the same way.

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
    def from_dict(cls, doc: dict, d: int, n_classes: int) -> "TreeNode":
        """Node of a forest over d features and n_classes classes, checked.

        Raises ValueError for a leaf whose counts are not n_classes
        non-negative integers with a positive sum, a split feature outside
        [0, d), or a non-finite threshold.
        """
        if "counts" in doc:
            counts = np.array(doc["counts"], dtype=np.int64)
            if counts.shape != (n_classes,) or (counts < 0).any() or counts.sum() < 1:
                raise ValueError(f"leaf counts must be {n_classes} non-negative integers "
                                 f"with a positive sum, got {doc['counts']!r}")
            return cls(counts=counts)
        feature = int(doc["feature"])
        threshold = float(doc["threshold"])
        if not 0 <= feature < d:
            raise ValueError(f"split feature {feature} is outside [0, {d})")
        if not math.isfinite(threshold):
            raise ValueError(f"split threshold {threshold} is not finite")
        return cls(
            feature=feature,
            threshold=threshold,
            left=cls.from_dict(doc["left"], d, n_classes),
            right=cls.from_dict(doc["right"], d, n_classes),
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
    """Highest Gini-decrease (gain, feature, threshold) over midpoint cuts.

    X is (k, n): row i holds candidate feature features[i] over the node's
    n samples, whose 0-based classes are y0.
    """
    n = y0.shape[0]
    counts = np.bincount(y0, minlength=n_classes)
    parent = gini(counts)
    if n < 2:
        return None
    order = np.argsort(X, axis=1)  # not stable: ties never straddle a cut
    sv = np.take_along_axis(X, order, axis=1)
    ys = y0[order]
    # rank[i, j]: how many samples before position j of row i share its class.
    # A stable sort of the classes lists each class's positions in order, and
    # every row is a permutation of the same samples, so the within-class
    # offset of each sorted slot is one vector shared by all rows.
    by_class = np.argsort(ys.astype(np.int16), axis=1, kind="stable")
    sorted_classes = np.repeat(np.arange(n_classes), counts)
    within = np.arange(n) - (np.cumsum(counts) - counts)[sorted_classes]
    rank = np.empty_like(by_class)
    np.put_along_axis(rank, by_class, np.broadcast_to(within, by_class.shape), axis=1)
    # Over the prefix ending at j, with L the left counts and T the node's:
    # sum L_c^2 grows by 2*rank+1 per sample, sum T_c*L_c by T of its class.
    sum_l2 = np.cumsum(2 * rank + 1, axis=1)[:, :-1]
    sum_tl = np.cumsum(counts[ys], axis=1)[:, :-1]
    sum_r2 = int(counts @ counts) - 2 * sum_tl + sum_l2
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    gini_l = 1.0 - sum_l2.astype(np.float64) / (nl * nl)
    gini_r = 1.0 - sum_r2.astype(np.float64) / (nr * nr)
    gains = parent - (nl * gini_l + nr * gini_r) / n
    is_cut = sv[:, :-1] < sv[:, 1:]
    gains[~is_cut] = -np.inf
    picks = np.argmax(gains, axis=1)
    best: tuple[float, int, float] | None = None
    for i in np.nonzero(is_cut.any(axis=1))[0]:
        cut = picks[i]
        gain = float(gains[i, cut])
        if gain <= _GAIN_EPS:
            continue
        threshold = float(0.5 * (sv[i, cut] + sv[i, cut + 1]))
        if best is None or gain > best[0] + _GAIN_EPS:
            best = (gain, int(features[i]), threshold)
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
    XT = np.ascontiguousarray(X.T)

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        counts = np.bincount(y0[idx], minlength=n_classes)
        if (
            idx.shape[0] < 2
            or (counts > 0).sum() == 1
            or (max_depth is not None and depth >= max_depth)
        ):
            return TreeNode(counts=counts)
        features = np.sort(gen.choice(d, size=subset, replace=False))
        best = _best_split(XT[features][:, idx], y0[idx], features, n_classes)
        if best is None:
            return TreeNode(counts=counts)
        _, feature, threshold = best
        goes_left = XT[feature, idx] <= threshold
        return TreeNode(
            feature=feature,
            threshold=threshold,
            left=build(idx[goes_left], depth + 1),
            right=build(idx[~goes_left], depth + 1),
        )

    tree = build(np.arange(X.shape[0]), 0)
    # build's closure holds build itself; emptying the cell breaks that cycle,
    # so XT is freed on return instead of at the next garbage collection.
    del build
    return tree


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
        d, n_classes = int(doc["d"]), int(doc["n_classes"])
        return cls(
            trees=[TreeNode.from_dict(t, d, n_classes) for t in doc["trees"]],
            d=d,
            seed=int(doc["seed"]),
            n_classes=n_classes,
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
