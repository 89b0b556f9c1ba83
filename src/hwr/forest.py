"""Random forest: bootstrap-trained CART trees, probability averaging.

Each tree grows on an n-sample bootstrap; every node draws floor(sqrt(d))
distinct candidate features from the tree's seeded stream (consumed in
depth-first order) and splits at the midpoint threshold with the largest
Gini impurity decrease.  Gain ties break toward the lower feature index,
then the lower threshold.  Nodes stop at purity, at fewer than 2 samples,
or when no positive-gain split exists; trees are not pruned.  A tree
depends only on the training rows and its (seed, index), so the trees of a
forest grow in worker processes.

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
Prediction walks flat arrays over the nodes of all trees (the layout of
scikit-learn's ``tree_``), every (row, tree) pair at once, for as many steps
as the deepest leaf.  It is exactly the one-tree-at-a-time walk of
tests/oracles.py:
- a split sends x left when x[feature] <= threshold, the same comparison,
  so a NaN goes right; a leaf is its own left and right child, so a pair
  that reaches its leaf early stays there for the remaining steps;
- each leaf's distribution is its counts divided by their sum, computed once
  with the same elementwise division;
- the distributions of a row are summed by a cumulative sum along the tree
  axis, which adds them one after another in tree order, the same float
  additions as a running ``probs += ...`` from zero (0.0 + p is p);
- the sum is divided by the tree count, and argmax keeps the first maximum.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import dataset, workers
from .labels import N_CLASSES

DEFAULT_TREE_COUNTS = (50, 100, 2000)

_GAIN_EPS = 1e-12


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: np.ndarray | None = None  # leaf class counts, class c at index c-1

    @property
    def is_leaf(self) -> bool:
        return self.counts is not None

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
        """Node as saved by to_dict; ForestModel checks it and makes its counts a row."""
        if "counts" in doc:
            return cls(counts=list(doc["counts"]))
        return cls(feature=doc["feature"], threshold=doc["threshold"],
                   left=cls.from_dict(doc["left"]), right=cls.from_dict(doc["right"]))


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
    X: np.ndarray, y0: np.ndarray, features: np.ndarray
) -> tuple[float, int, float] | None:
    """Highest Gini-decrease (gain, feature, threshold) over midpoint cuts.

    X is (k, n): row i holds candidate feature features[i] over the node's
    n samples, whose 0-based classes are y0.
    """
    n = y0.shape[0]
    counts = np.bincount(y0, minlength=N_CLASSES)
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
    sorted_classes = np.repeat(np.arange(N_CLASSES), counts)
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


def grow_tree(X: np.ndarray, labels: np.ndarray, tree_seed) -> TreeNode:
    """CART tree over 1-based labels; floor(sqrt(d)) candidate features per node."""
    return _tree(*_grown(X, labels, tree_seed))


def _grown(X: np.ndarray, labels: np.ndarray, tree_seed) -> tuple[list, list, np.ndarray]:
    """grow_tree's tree in preorder: split features and thresholds (-1 and 0.0 at a
    leaf) and the leaves' class counts, one row each."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(labels, dtype=np.intp)
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"{y.shape[0]} labels for {X.shape[0]} samples")
    if y.shape[0] < 1:
        raise ValueError("need at least one sample")
    if y.min() < 1 or y.max() > N_CLASSES:
        raise ValueError(f"labels must lie in [1, {N_CLASSES}]")
    feature, threshold, counts = [], [], []
    _grow(np.ascontiguousarray(X.T), y - 1, np.arange(X.shape[0]),
          np.random.default_rng(tree_seed), math.isqrt(X.shape[1]), (feature, threshold, counts))
    return feature, threshold, np.array(counts)


def _grow(XT: np.ndarray, y0: np.ndarray, idx: np.ndarray, gen, k: int, tree: tuple) -> None:
    """Append the subtree of the samples idx to the preorder lists of tree.

    A split appends its feature and threshold, a leaf appends feature -1,
    threshold 0.0 and its class counts; each split draws k features from gen.
    """
    feature, threshold, leaves = tree
    counts = np.bincount(y0[idx], minlength=N_CLASSES)
    if idx.shape[0] >= 2 and (counts > 0).sum() > 1:
        features = np.sort(gen.choice(XT.shape[0], size=k, replace=False))
        best = _best_split(XT[features][:, idx], y0[idx], features)
        if best is not None:
            _, f, t = best
            feature.append(f)
            threshold.append(t)
            goes_left = XT[f, idx] <= t
            _grow(XT, y0, idx[goes_left], gen, k, tree)
            _grow(XT, y0, idx[~goes_left], gen, k, tree)
            return
    feature.append(-1)
    threshold.append(0.0)
    leaves.append(counts)


def _tree(feature: list, threshold: list, counts: np.ndarray) -> TreeNode:
    """The TreeNode graph of a preorder from _grown; leaves take the rows of counts."""
    nodes, leaves = zip(feature, threshold), iter(counts)

    def node() -> TreeNode:
        f, t = next(nodes)
        if f < 0:
            return TreeNode(counts=next(leaves))
        return TreeNode(feature=f, threshold=t, left=node(), right=node())

    return node()


@dataclass
class ForestModel:
    """Trees over d features, with their nodes laid out as flat arrays.

    Node i of the arrays splits on ``feature[i]`` at ``threshold[i]`` with
    children ``left[i]`` and ``right[i]``, or is a leaf with its own index as
    both children and class distribution ``dist[i]`` (zeros at a split).
    Each tree's nodes are numbered in preorder from ``roots`` of that tree;
    ``depth`` is the largest root-to-leaf edge count.  Numbering checks the
    nodes of trained, built and loaded forests alike: split features must be
    integers in [0, d), thresholds finite integers or floats, and leaf counts
    N_CLASSES non-negative integers with a positive sum, which each leaf then
    holds as an int64 row (numpy integers count, bools do not).
    """

    FORMAT = "hwr-rf/1"

    trees: list[TreeNode]
    d: int
    seed: int
    feature: np.ndarray = field(init=False)    # (nodes,)
    threshold: np.ndarray = field(init=False)  # (nodes,)
    left: np.ndarray = field(init=False)       # (nodes,)
    right: np.ndarray = field(init=False)      # (nodes,)
    dist: np.ndarray = field(init=False)       # (nodes, N_CLASSES)
    roots: np.ndarray = field(init=False)      # (m,)
    depth: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a forest needs at least one tree")
        feature, threshold, left, right, roots, leaves = [], [], [], [], [], []
        self.depth = 0
        for tree in self.trees:
            roots.append(len(feature))
            # (node, its depth, the index of the split it is the right child of)
            todo = [(tree, 0, None)]
            while todo:
                node, level, parent = todo.pop()
                if node is None:
                    raise ValueError("a split is missing a child")
                i = len(feature)
                if parent is not None:
                    right[parent] = i
                if node.is_leaf:
                    self.depth = max(self.depth, level)
                    feature.append(0)
                    threshold.append(0.0)
                    left.append(i)
                    right.append(i)
                    leaves.append(node)
                else:
                    feature.append(node.feature)
                    threshold.append(node.threshold)
                    left.append(i + 1)  # preorder: the left child comes next
                    right.append(-1)
                    todo += [(node.right, level + 1, i), (node.left, level + 1, None)]
        if not all(np.issubdtype(t, np.integer) for t in set(map(type, feature))):
            raise ValueError("a split feature is not an integer")
        if not all(np.issubdtype(t, np.integer) or np.issubdtype(t, np.floating)
                   for t in set(map(type, threshold))) or not all(map(math.isfinite, threshold)):
            raise ValueError("a split threshold is not a finite integer or float")
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.roots = np.array(roots, dtype=np.intp)
        leaf = self.left == np.arange(len(left))
        if (~leaf & ((self.feature < 0) | (self.feature >= self.d))).any():
            raise ValueError(f"a split feature is outside [0, {self.d})")
        bad_leaf = f"leaf counts must be {N_CLASSES} non-negative integers with a positive sum"
        shapes, types = set(), set()
        for c in (node.counts for node in leaves):  # an array's dtype stands for its elements
            array = isinstance(c, np.ndarray)
            shapes.add(c.shape if array else (len(c),))
            types.update([c.dtype.type] if array else map(type, c))
        if shapes != {(N_CLASSES,)} or not all(np.issubdtype(t, np.integer) for t in types):
            raise ValueError(bad_leaf)
        counts = np.array([node.counts for node in leaves], dtype=np.int64)
        if (counts < 0).any() or (counts.sum(axis=1) < 1).any():
            raise ValueError(bad_leaf)
        for node, row in zip(leaves, counts):
            node.counts = row
        self.dist = np.zeros((len(feature), N_CLASSES))
        self.dist[leaf] = counts / counts.sum(axis=1, keepdims=True)

    @property
    def m(self) -> int:
        return len(self.trees)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf class distribution of every row, shape (rows, N_CLASSES)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"input has shape {X.shape[1:]}, forest expects length {self.d}")
        flat = X.ravel()
        row_start = np.arange(X.shape[0])[:, None] * self.d
        node = np.broadcast_to(self.roots, (X.shape[0], self.m))
        for _ in range(self.depth):
            goes_left = flat[row_start + self.feature[node]] <= self.threshold[node]
            node = np.where(goes_left, self.left[node], self.right[node])
        return np.cumsum(self.dist[node], axis=1)[:, -1] / self.m

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1) + 1

    def save(self, path: str | os.PathLike) -> None:
        dataset.write_model(path, {
            "format": self.FORMAT,
            "d": self.d,
            "seed": self.seed,
            "n_classes": N_CLASSES,
            "trees": [t.to_dict() for t in self.trees],
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "ForestModel":
        if dataset.number(doc["n_classes"]) != N_CLASSES:
            raise ValueError(f"n_classes is {doc['n_classes']!r}, not {N_CLASSES}")
        return cls(trees=[TreeNode.from_dict(t) for t in doc["trees"]],
                   d=dataset.number(doc["d"]), seed=dataset.number(doc["seed"]))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ForestModel":
        return dataset.read_model(path, cls)


def rf_train(X: np.ndarray, labels: np.ndarray, m: int, seed: int) -> ForestModel:
    """Grow m trees on independent bootstraps; streams derive from (seed, b).

    Tree b depends only on (seed, b) and the training rows, so the trees are
    grown by ``workers.map_jobs`` and come back in _grown's flat preorder.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape[0] != X.shape[0]:
        raise ValueError(f"{labels.shape[0]} labels for {X.shape[0]} samples")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if m < 1:
        raise ValueError(f"tree count must be >= 1, got {m}")

    def grown(b: int) -> tuple[list, list, np.ndarray]:
        boot = bootstrap_indices(seed, b, X.shape[0])
        return _grown(X[boot], labels[boot], [seed, b, 1])

    trees = [_tree(*flat) for flat in workers.map_jobs(grown, range(m))]
    return ForestModel(trees=trees, d=X.shape[1], seed=seed)


def bootstrap_indices(seed: int, tree_index: int, n: int) -> np.ndarray:
    """The exact bootstrap sample used for tree `tree_index`."""
    return np.random.default_rng([seed, tree_index, 0]).integers(0, n, size=n)


def rf_predict_proba(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Unweighted mean of per-tree leaf class distributions of one sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.d:
        raise ValueError(f"input has shape {x.shape}, forest expects length {model.d}")
    return model.predict_proba(x[None])[0]


def rf_predict(model: ForestModel, x: np.ndarray) -> int:
    """Most probable class id of one sample; ties break toward the lowest id."""
    return int(np.argmax(rf_predict_proba(model, x))) + 1
