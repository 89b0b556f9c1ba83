"""Random forest: bootstrap-trained CART trees, probability averaging.

Each tree grows on an n-sample bootstrap; every impure node draws
floor(sqrt(d)) distinct candidate features from the tree's seeded stream and
splits at the midpoint threshold with the largest Gini impurity decrease.
Gain ties break toward the lower feature index, then the lower threshold.
Nodes stop at purity, at fewer than 2 samples, or when no positive-gain
split exists; trees are not pruned.  A tree grows in one loop over a stack
of node row sets, so its nodes draw their features in preorder.  A tree
depends only on the training rows and its (seed, index), so the trees of a
forest grow in worker processes.  A forest is held, saved (``hwr-rf/2``)
and loaded as the preorder lists that growth writes; nothing recurses.

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
Prediction walks arrays numbered from the preorder (the layout of
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
from dataclasses import dataclass

import numpy as np

from . import dataset, workers
from .labels import N_CLASSES, class_ids

_GAIN_EPS = 1e-12


@dataclass
class TreeNode:
    """A tree as a graph: the form ForestModel takes trees in and shows its own in."""

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: np.ndarray | None = None  # leaf class counts, class c at index c-1

    @property
    def is_leaf(self) -> bool:
        return self.counts is not None


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
    rows = np.arange(X.shape[0])[:, None]
    order = np.argsort(X, axis=1)  # not stable: ties never straddle a cut
    sv = X[rows, order]
    ys = y0[order]
    # rank[i, j]: how many samples before position j of row i share its class.
    # A stable sort of the classes lists each class's positions in order, and
    # every row is a permutation of the same samples, so the within-class
    # offset of each sorted slot is one vector shared by all rows.
    by_class = np.argsort(ys.astype(np.int16), axis=1, kind="stable")
    sorted_classes = np.repeat(np.arange(N_CLASSES), counts)
    within = np.arange(n) - (np.cumsum(counts) - counts)[sorted_classes]
    rank = np.empty_like(by_class)
    rank[rows, by_class] = within
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
        lo, hi = float(sv[i, cut]), float(sv[i, cut + 1])
        threshold = 0.5 * (lo + hi)
        if not lo <= threshold < hi:  # rounded onto hi, or overflowed: a cut that parts nothing
            threshold = lo
        if best is None or gain > best[0] + _GAIN_EPS:
            best = (gain, int(features[i]), threshold)
    return best


def grow_tree(X: np.ndarray, labels: np.ndarray, tree_seed) -> tuple[list, list, np.ndarray]:
    """CART tree over 1-based labels, floor(sqrt(d)) candidate features per node, in
    preorder: features and thresholds (-1 and 0.0 at a leaf), and a row of counts per leaf.
    A split pushes its right rows under its left ones, so nodes come off the stack in preorder."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = class_ids(labels, X.shape[0])
    if not y.size:
        raise ValueError("need at least one sample")
    XT, y0 = np.ascontiguousarray(X.T), y - 1
    gen, k = np.random.default_rng(tree_seed), math.isqrt(X.shape[1])
    feature, threshold, counts = [], [], []
    todo = [np.arange(X.shape[0])]
    while todo:
        idx = todo.pop()
        node_counts = np.bincount(y0[idx], minlength=N_CLASSES)
        best = None
        if (node_counts > 0).sum() > 1:
            features = np.sort(gen.choice(XT.shape[0], size=k, replace=False))
            best = _best_split(XT[features[:, None], idx], y0[idx], features)
        if best is None:
            feature.append(-1)
            threshold.append(0.0)
            counts.append(node_counts)
            continue
        _, f, t = best
        feature.append(f)
        threshold.append(t)
        goes_left = XT[f, idx] <= t
        todo += [idx[~goes_left], idx[goes_left]]
    return feature, threshold, np.array(counts)


_BAD_LEAF = f"leaf counts must be {N_CLASSES} non-negative integers with a positive sum"


def _all_of(values, kinds) -> bool:
    """Whether a list's elements, or an array's dtype, which stands for its elements,
    are all of the numpy kinds (numpy integers are integers, bools are not)."""
    types = {values.dtype.type} if isinstance(values, np.ndarray) else set(map(type, values))
    return all(issubclass(np.dtype(t).type, kinds) for t in types)


class ForestModel:
    """Trees over d features as grow_tree's preorder lists, which ``hwr-rf/2`` stores.

    ``feature`` and ``threshold`` hold every node, tree after tree, each tree
    in preorder (a split, its left subtree, its right subtree), with -1 and
    0.0 at a leaf; ``counts`` holds a row of N_CLASSES class counts per leaf.
    Numbering checks trained, built and loaded forests alike (split features
    integers in [0, d), thresholds finite integers or floats, each leaf's
    counts non-negative integers with a positive sum, whole trees) and
    derives the walk's arrays: node i splits at ``threshold[i]`` into
    ``left[i]`` and ``right[i]``, or is a leaf, its own children, with class
    distribution ``dist[i]``; ``roots`` are the trees' first nodes and
    ``depth`` the largest root-to-leaf edge count.
    """

    FORMAT = "hwr-rf/2"

    def __init__(self, trees: list[TreeNode], d: int, seed: int) -> None:
        """The forest of TreeNode graphs, walked into the preorder lists, which cannot hold a
        split missing a child or on feature -1, a leaf's mark, or leaf counts of another shape."""
        feature, threshold, counts = [], [], []
        todo = list(reversed(trees))
        while todo:
            node = todo.pop()
            if node is None:
                raise ValueError("a split is missing a child")
            if node.is_leaf:
                if np.shape(node.counts) != (N_CLASSES,):
                    raise ValueError(_BAD_LEAF)
                feature.append(-1)
                threshold.append(0.0)
                counts.extend(node.counts)
            elif node.feature == -1:
                raise ValueError("a split feature is -1, a leaf's mark")
            else:
                feature.append(node.feature)
                threshold.append(node.threshold)
                todo += [node.right, node.left]
        self._number(feature, threshold, counts, d, seed)

    @classmethod
    def from_preorder(cls, feature, threshold, counts, d: int, seed: int) -> "ForestModel":
        """The forest of preorder lists; counts flat, or an integer array of a row per leaf."""
        model = cls.__new__(cls)
        model._number(feature, threshold, counts, d, seed)
        return model

    def _number(self, feature, threshold, counts, d: int, seed: int) -> None:
        self.d, self.seed = d, seed
        if not _all_of(feature, np.integer):
            raise ValueError("a split feature is not an integer")
        if not _all_of(threshold, (np.integer, np.floating)):
            raise ValueError("a split threshold is not a finite integer or float")
        if not _all_of(counts, np.integer):
            raise ValueError(_BAD_LEAF)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        if self.feature.shape != self.threshold.shape:
            raise ValueError(f"{len(self.feature)} features but {len(self.threshold)} thresholds")
        if not np.isfinite(self.threshold).all():
            raise ValueError("a split threshold is not a finite integer or float")
        if ((self.feature < -1) | (self.feature >= d)).any():
            raise ValueError(f"a split feature is outside [0, {d})")
        leaf = self.feature == -1
        self.counts = np.array(counts, dtype=np.int64).reshape(leaf.sum(), N_CLASSES)
        if (self.counts < 0).any() or (self.counts.sum(axis=1) < 1).any():
            raise ValueError(_BAD_LEAF)
        # A split expects its left child next and its right child after the left
        # subtree; a node that no split expects starts a tree.
        right, roots, self.depth = list(range(len(leaf))), [], 0
        expected = []  # (level, split whose right child it is, or None) of nodes to come
        for i, is_leaf in enumerate(leaf.tolist()):
            level, parent = expected.pop() if expected else (0, None)
            if parent is not None:
                right[parent] = i
            if level == 0:
                roots.append(i)
            if is_leaf:
                self.depth = max(self.depth, level)
            else:
                expected += [(level + 1, i), (level + 1, None)]
        if expected:
            raise ValueError("the preorder ends inside a tree")
        if not roots:
            raise ValueError("a forest needs at least one tree")
        self.left = np.arange(len(leaf)) + ~leaf  # the next node at a split
        self.right = np.array(right, dtype=np.intp)
        self.roots = np.array(roots, dtype=np.intp)
        self.dist = np.zeros((len(leaf), N_CLASSES))
        self.dist[leaf] = self.counts / self.counts.sum(axis=1, keepdims=True)

    @property
    def m(self) -> int:
        return len(self.roots)

    @property
    def trees(self) -> list[TreeNode]:
        """Each tree as a TreeNode graph over the rows of counts, built on each access."""
        rows = iter(self.counts)
        nodes = [TreeNode(f, t) if f >= 0 else TreeNode(counts=next(rows))
                 for f, t in zip(self.feature.tolist(), self.threshold.tolist())]
        for i in np.flatnonzero(self.feature >= 0).tolist():
            nodes[i].left, nodes[i].right = nodes[i + 1], nodes[self.right[i]]
        return [nodes[root] for root in self.roots.tolist()]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf class distribution of every row, shape (rows, N_CLASSES)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"input has shape {X.shape[1:]}, forest expects length {self.d}")
        flat = X.ravel()
        row_start = np.arange(X.shape[0])[:, None] * self.d
        node = np.broadcast_to(self.roots, (X.shape[0], self.m))
        for _ in range(self.depth):
            # a leaf's feature -1 reads another value of X; both children are the leaf
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
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "counts": self.counts.ravel().tolist(),
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "ForestModel":
        if dataset.number(doc["n_classes"]) != N_CLASSES:
            raise ValueError(f"n_classes is {doc['n_classes']!r}, not {N_CLASSES}")
        return cls.from_preorder(doc["feature"], doc["threshold"], doc["counts"],
                                 dataset.size(doc, "d"), dataset.number(doc["seed"]))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ForestModel":
        return dataset.read_model(path, cls)


def rf_train(X: np.ndarray, labels: np.ndarray, m: int, seed: int) -> ForestModel:
    """Grow m trees on independent bootstraps; streams derive from (seed, b).

    Tree b depends only on (seed, b) and the training rows, so the trees are
    grown by ``workers.map_jobs`` and their preorders concatenated in tree order.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = class_ids(labels, X.shape[0])
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if m < 1:
        raise ValueError(f"tree count must be >= 1, got {m}")

    def grown(b: int) -> tuple[list, list, np.ndarray]:
        boot = bootstrap_indices(seed, b, X.shape[0])
        return grow_tree(X[boot], labels[boot], [seed, b, 1])

    trees = workers.map_jobs(grown, range(m))
    return ForestModel.from_preorder(*(np.concatenate(lists) for lists in zip(*trees)),
                                     d=X.shape[1], seed=seed)


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
