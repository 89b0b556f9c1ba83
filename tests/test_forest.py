from __future__ import annotations

import numpy as np
import pytest

from hwr import forest
from hwr.forest import (
    DEFAULT_TREE_COUNTS,
    ForestModel,
    TreeNode,
    bootstrap_indices,
    gini,
    grow_tree,
    rf_predict,
    rf_predict_proba,
    rf_train,
)


class TestGini:
    def test_pure_node(self):
        assert gini([10, 0]) == 0.0

    def test_two_class_maximum(self):
        assert gini([5, 5]) == 0.5

    def test_uniform_four(self):
        assert gini([1, 1, 1, 1]) == 0.75

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            gini([0, 0, 0])
        with pytest.raises(ValueError):
            gini([3, -1])


def exhaustive_best_split(X, y0, features, n_classes):
    """Oracle: enumerate every (feature, midpoint threshold) pair directly."""
    n = len(y0)
    parent = gini(np.bincount(y0, minlength=n_classes))
    best = None
    for f in sorted(features):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2
            mask = X[:, f] <= thr
            gl = gini(np.bincount(y0[mask], minlength=n_classes))
            gr = gini(np.bincount(y0[~mask], minlength=n_classes))
            gain = parent - (mask.sum() * gl + (~mask).sum() * gr) / n
            if best is None or gain > best[0] + 1e-12:
                best = (gain, f, thr)
    return best


class TestGrowTree:
    def test_single_class_is_leaf(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        tree = grow_tree(X, np.full(6, 4), tree_seed=0)
        assert tree.is_leaf
        assert tree.counts[3] == 6

    def test_1d_two_class_threshold(self):
        X = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
        y = np.array([1, 1, 1, 2, 2, 2])
        tree = grow_tree(X, y, tree_seed=0, n_classes=2)
        assert not tree.is_leaf
        assert tree.feature == 0
        assert 0.3 < tree.threshold < 0.7
        assert tree.left.is_leaf and tree.right.is_leaf
        # oracle: exhaustive threshold enumeration picks the same cut
        oracle = exhaustive_best_split(X, y - 1, [0], 2)
        assert tree.threshold == oracle[2]

    def test_feature_subset_size_sqrt_100(self, monkeypatch):
        drawn = []
        original = forest._best_split

        def spy(X, y0, features, n_classes):
            drawn.append(len(features))
            return original(X, y0, features, n_classes)

        monkeypatch.setattr(forest, "_best_split", spy)
        gen = np.random.default_rng(1)
        X = gen.normal(size=(40, 100))
        y = gen.integers(1, 5, size=40)
        grow_tree(X, y, tree_seed=3, n_classes=14)
        assert drawn and all(count == 10 for count in drawn)

    def test_split_matches_exhaustive_enumeration(self):
        gen = np.random.default_rng(2)
        X = gen.normal(size=(10, 2))
        y = gen.integers(1, 4, size=10)
        # full feature set so the oracle and the tree search the same space
        tree = grow_tree(X, y, tree_seed=5, n_classes=3, feature_subset=2)
        oracle = exhaustive_best_split(X, y - 1, [0, 1], 3)
        if oracle is None or oracle[0] <= 0:
            assert tree.is_leaf
        else:
            assert (tree.feature, tree.threshold) == (oracle[1], oracle[2])

    def test_max_depth_cap(self):
        gen = np.random.default_rng(3)
        X = gen.normal(size=(50, 4))
        y = gen.integers(1, 5, size=50)
        tree = grow_tree(X, y, tree_seed=0, n_classes=4, max_depth=2)

        def depth(node):
            return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

        assert depth(tree) <= 2

    def test_paths_strictly_decrease_weighted_impurity(self):
        gen = np.random.default_rng(4)
        X = gen.normal(size=(60, 5))
        y = gen.integers(1, 4, size=60)
        tree = grow_tree(X, y, tree_seed=7, n_classes=3)

        def check(node):
            if node.is_leaf:
                return
            for child_counts in [_counts(node.left), _counts(node.right)]:
                assert child_counts.sum() >= 1
            nl, nr = _counts(node.left).sum(), _counts(node.right).sum()
            parent_gini = gini(_counts(node.left) + _counts(node.right))
            weighted = (nl * gini(_counts(node.left)) + nr * gini(_counts(node.right))) / (nl + nr)
            assert weighted < parent_gini - 1e-12
            check(node.left)
            check(node.right)

        def _counts(node):
            if node.is_leaf:
                return node.counts.copy()
            return _counts(node.left) + _counts(node.right)

        check(tree)


class TestRfTrain:
    def test_single_tree_forest_equals_tree(self):
        gen = np.random.default_rng(5)
        X = gen.normal(size=(30, 4))
        y = gen.integers(1, 4, size=30)
        model = rf_train(X, y, m=1, seed=9, n_classes=3)
        boot = bootstrap_indices(9, 0, 30)
        solo = grow_tree(X[boot], y[boot], tree_seed=[9, 0, 1], n_classes=3)
        for x in X[:10]:
            leaf_counts = solo.leaf_for(x).counts
            expected = leaf_counts / leaf_counts.sum()
            assert np.allclose(rf_predict_proba(model, x), expected)

    def test_seed_determinism(self):
        gen = np.random.default_rng(6)
        X = gen.normal(size=(25, 3))
        y = gen.integers(1, 3, size=25)
        a = rf_train(X, y, m=5, seed=1, n_classes=2)
        b = rf_train(X, y, m=5, seed=1, n_classes=2)
        c = rf_train(X, y, m=5, seed=2, n_classes=2)
        probe = gen.normal(size=(12, 3))
        assert np.array_equal(a.predict_batch(probe), b.predict_batch(probe))
        assert [t.to_dict() for t in a.trees] == [t.to_dict() for t in b.trees]
        assert any(ta.to_dict() != tc.to_dict() for ta, tc in zip(a.trees, c.trees))

    def test_default_tree_counts_exposed(self):
        assert DEFAULT_TREE_COUNTS == (50, 100, 2000)

    def test_bootstrap_reproducible(self):
        assert np.array_equal(bootstrap_indices(3, 2, 17), bootstrap_indices(3, 2, 17))
        assert not np.array_equal(bootstrap_indices(3, 2, 17), bootstrap_indices(3, 3, 17))


class TestPredict:
    def _two_leaf_forest(self):
        leaf3 = TreeNode(counts=np.array([0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]))
        leaf5 = TreeNode(counts=np.array([0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0]))
        return ForestModel(trees=[leaf3, leaf5], d=2, seed=0)

    def test_averaging_equation_and_tie_break(self):
        model = self._two_leaf_forest()
        probs = rf_predict_proba(model, np.zeros(2))
        expected = np.zeros(14)
        expected[2] = expected[4] = 0.5
        assert np.allclose(probs, expected, atol=1e-15)
        assert rf_predict(model, np.zeros(2)) == 3  # tie toward lowest id

    def test_probs_sum_to_one(self):
        gen = np.random.default_rng(7)
        X = gen.normal(size=(40, 3))
        y = gen.integers(1, 5, size=40)
        model = rf_train(X, y, m=7, seed=3, n_classes=14)
        for x in X[:8]:
            assert abs(rf_predict_proba(model, x).sum() - 1.0) < 1e-12

    def test_identical_trees_average_to_single(self):
        leaf = TreeNode(counts=np.array([1, 2, 3] + [0] * 11))
        model = ForestModel(trees=[leaf, leaf, leaf], d=1, seed=0)
        single = leaf.counts / leaf.counts.sum()
        assert np.allclose(rf_predict_proba(model, np.zeros(1)), single, atol=1e-15)

    def test_tree_order_invariance(self):
        gen = np.random.default_rng(8)
        X = gen.normal(size=(30, 3))
        y = gen.integers(1, 4, size=30)
        model = rf_train(X, y, m=6, seed=4, n_classes=3)
        reversed_model = ForestModel(trees=list(reversed(model.trees)), d=3, seed=4,
                                     n_classes=3)
        probe = gen.normal(size=(10, 3))
        for x in probe:
            assert np.allclose(rf_predict_proba(model, x),
                               rf_predict_proba(reversed_model, x), atol=1e-15)

    def test_dimension_check(self):
        model = self._two_leaf_forest()
        with pytest.raises(ValueError, match="length"):
            rf_predict_proba(model, np.zeros(5))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(9)
        X = gen.normal(size=(40, 4))
        y = gen.integers(1, 5, size=40)
        model = rf_train(X, y, m=4, seed=11, n_classes=14)
        path = tmp_path / "forest.json"
        model.save(path)
        loaded = ForestModel.load(path)
        assert loaded.d == 4 and loaded.m == 4 and loaded.seed == 11
        probe = gen.normal(size=(15, 4))
        for x in probe:
            assert np.allclose(rf_predict_proba(loaded, x), rf_predict_proba(model, x))

    def test_format_tag_checked(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"format": "zzz"}')
        with pytest.raises(ValueError, match="format"):
            ForestModel.load(tmp_path / "bad.json")
