from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hwr import forest
from hwr.forest import (
    ForestModel,
    TreeNode,
    bootstrap_indices,
    gini,
    grow_tree,
    rf_predict,
    rf_predict_proba,
    rf_train,
)
from hwr.labels import N_CLASSES
from oracles import per_tree_predict_proba, scalar_best_split, scalar_grow_tree


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


def exhaustive_best_split(X, y0, features):
    """Oracle: enumerate every (feature, midpoint threshold) pair directly."""
    n = len(y0)
    parent = gini(np.bincount(y0, minlength=N_CLASSES))
    best = None
    for f in sorted(features):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2
            mask = X[:, f] <= thr
            gl = gini(np.bincount(y0[mask], minlength=N_CLASSES))
            gr = gini(np.bincount(y0[~mask], minlength=N_CLASSES))
            gain = parent - (mask.sum() * gl + (~mask).sum() * gr) / n
            if best is None or gain > best[0] + 1e-12:
                best = (gain, f, thr)
    return best


def _graph(X, y, tree_seed) -> TreeNode:
    """grow_tree's tree as a TreeNode graph."""
    return ForestModel.from_preorder(*grow_tree(X, y, tree_seed), d=X.shape[1], seed=0).trees[0]


def _preorder(model: ForestModel) -> tuple[bytes, bytes, bytes]:
    """The bytes of a forest's preorder lists, as equal as hwr-rf/2 files of it are."""
    return model.feature.tobytes(), model.threshold.tobytes(), model.counts.tobytes()


class TestGrowTree:
    def test_single_class_is_leaf(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        feature, threshold, counts = grow_tree(X, np.full(6, 4), tree_seed=0)
        assert (feature, threshold) == ([-1], [0.0])
        assert counts.tolist() == [[0, 0, 0, 6] + [0] * 10]

    def test_1d_two_class_threshold(self):
        X = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
        y = np.array([1, 1, 1, 2, 2, 2])
        feature, threshold, counts = grow_tree(X, y, tree_seed=0)
        assert feature == [0, -1, -1] and threshold[1:] == [0.0, 0.0]
        assert 0.3 < threshold[0] < 0.7
        assert counts.tolist() == [[3, 0] + [0] * 12, [0, 3] + [0] * 12]
        # oracle: exhaustive threshold enumeration picks the same cut
        oracle = exhaustive_best_split(X, y - 1, [0])
        assert threshold[0] == oracle[2]

    def test_row_at_a_threshold_goes_left(self):
        """Kills the ``<=`` -> ``<`` mutant of grow_tree's partition.

        The midpoint of 1 and the next float rounds onto 1, so row 0 lies at the
        threshold: ``<`` sends it right, leaving the left child empty."""
        X = np.array([[1.0, 0.0], [np.nextafter(1.0, 2.0), 1.0]])
        feature, threshold, counts = grow_tree(X, np.array([1, 2]), tree_seed=1)  # draws f0
        assert (feature, threshold) == ([0, -1, -1], [1.0, 0.0, 0.0])
        assert counts.tolist() == [[1, 0] + [0] * 12, [0, 1] + [0] * 12]

    @pytest.mark.parametrize("lo, hi", [
        (1.0 + 2.0**-52, 1.0 + 2.0**-51),  # the midpoint rounds onto hi
        (1e308, np.finfo(np.float64).max),  # the sum overflows to inf
        (-np.finfo(np.float64).max, -1e308),  # and to -inf
    ])
    def test_threshold_parts_the_two_values_it_cuts_between(self, lo, hi):
        """A cut's threshold t keeps lo <= t < hi, so that its split parts the node: a
        midpoint that rounds onto hi or overflows is replaced by lo.  (A threshold of hi,
        or one of +-inf, sends every row to one side, and the tree grows for ever.)"""
        X, y0 = np.array([[lo], [hi]]), np.array([0, 1])
        assert _vector_split(X, y0, [0]) == (0.5, 0, lo) == scalar_best_split(X, y0, [0],
                                                                              N_CLASSES)
        feature, threshold, _ = grow_tree(X, y0 + 1, tree_seed=0)
        assert (feature, threshold) == ([0, -1, -1], [lo, 0.0, 0.0])

    def test_feature_subset_size_sqrt_100(self, monkeypatch):
        drawn = []
        original = forest._best_split

        def spy(X, y0, features):
            drawn.append(len(features))
            return original(X, y0, features)

        monkeypatch.setattr(forest, "_best_split", spy)
        gen = np.random.default_rng(1)
        X = gen.normal(size=(40, 100))
        y = gen.integers(1, 5, size=40)
        grow_tree(X, y, tree_seed=3)
        assert drawn and all(count == 10 for count in drawn)

    def test_split_matches_exhaustive_enumeration(self):
        gen = np.random.default_rng(2)
        X = gen.normal(size=(10, 4))
        y = gen.integers(1, 4, size=10)
        feature, threshold, _ = grow_tree(X, y, tree_seed=5)
        # the root searches the first floor(sqrt(4)) = 2 features its stream draws
        drawn = np.random.default_rng(5).choice(4, size=2, replace=False)
        oracle = exhaustive_best_split(X, y - 1, drawn)
        if oracle is None or oracle[0] <= 0:
            assert feature == [-1]
        else:
            assert (feature[0], threshold[0]) == (oracle[1], oracle[2])

    def test_paths_strictly_decrease_weighted_impurity(self):
        gen = np.random.default_rng(4)
        X = gen.normal(size=(60, 5))
        y = gen.integers(1, 4, size=60)
        tree = _graph(X, y, tree_seed=7)

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

    def test_chain_of_2399_splits_grows_without_recursion(self):
        # alternating labels on one feature: each split peels one row off the left end
        X = np.arange(2400, dtype=np.float64)[:, None]
        y = np.resize([1, 2], 2400)
        model = ForestModel.from_preorder(*grow_tree(X, y, tree_seed=0), d=1, seed=0)
        assert len(model.feature) == 4799 and model.depth == 2399
        assert np.array_equal(model.predict_batch(X), y)


def _vector_split(X, y0, features):
    """The vectorized search on the (k, n) block that grow_tree gathers."""
    features = np.asarray(features)
    return forest._best_split(np.ascontiguousarray(X[:, features].T), y0, features)


def _split_case(gen, n, d, n_classes, kind):
    """A node matrix whose columns are drawn to tie in the given way.

    Columns of three values tie within a column and often give gains that
    differ between features only by rounding (below the gain epsilon); the
    proportional halves repeat one class sequence twice and split it in the
    middle, a cut whose gain is zero but rounds to about 1e-16.
    """
    y0 = gen.integers(0, n_classes, size=n)
    if kind == "normal":
        X = gen.normal(size=(n, d))
    elif kind == "three-values":
        X = gen.integers(0, 3, size=(n, d)).astype(np.float64)
    elif kind == "constant-columns":
        X = gen.normal(size=(n, d))
        X[:, ::2] = 1.5
    elif kind == "duplicate-rows":
        X = np.repeat(gen.integers(0, 3, size=((n + 1) // 2, d)).astype(np.float64), 2,
                      axis=0)[:n]
    else:  # proportional halves
        y0 = np.resize(y0[: (n + 1) // 2], n)
        X = gen.integers(0, 3, size=(n, d)).astype(np.float64)
        X[:, ::2] = (np.arange(n) >= (n + 1) // 2)[:, None]
    return X, y0


class TestSplitOracle:
    """The vectorized split search equals the per-feature loop exactly."""

    @pytest.mark.parametrize("kind", ["normal", "three-values", "constant-columns",
                                      "duplicate-rows", "proportional-halves"])
    @pytest.mark.parametrize("n_classes", [1, 2, 3, 14])
    @pytest.mark.parametrize("n", [2, 3, 12, 200])
    def test_seeded_matrices(self, n, n_classes, kind):
        gen = np.random.default_rng([n, n_classes, len(kind)])
        for _ in range(20):
            d = int(gen.integers(1, 30))
            X, y0 = _split_case(gen, n, d, n_classes, kind)
            features = np.sort(gen.choice(d, size=int(gen.integers(1, d + 1)), replace=False))
            expected = scalar_best_split(X, y0, features, N_CLASSES)
            assert _vector_split(X, y0, features) == expected

    def test_all_fourteen_classes_present(self):
        gen = np.random.default_rng(14)
        y0 = np.concatenate([np.arange(14), gen.integers(0, 14, size=86)])
        X = gen.integers(0, 6, size=(100, 12)).astype(np.float64)
        features = np.arange(12)
        assert _vector_split(X, y0, features) == scalar_best_split(X, y0, features, N_CLASSES)

    def test_rounding_tie_keeps_the_lower_feature(self):
        # Both columns' best cuts gain 0.02 exactly; rounding puts the second
        # 5.5e-17 above the first, less than the gain epsilon, so the first wins.
        X = np.array([[1, 2, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 2, 2, 0, 1],
                      [0, 2, 0, 2, 1, 1, 1, 1, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 1]],
                     dtype=np.float64).T
        y0 = np.array([0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0])
        gain_0 = scalar_best_split(X, y0, [0], N_CLASSES)[0]
        assert 0 < scalar_best_split(X, y0, [1], N_CLASSES)[0] - gain_0 < forest._GAIN_EPS
        assert scalar_best_split(X, y0, [0, 1], N_CLASSES)[1] == 0
        assert _vector_split(X, y0, [0, 1]) == scalar_best_split(X, y0, [0, 1], N_CLASSES)

    def test_no_cut_gives_none(self):
        X = np.full((5, 3), 2.0)
        y0 = np.array([0, 1, 0, 1, 1])
        assert _vector_split(X, y0, [0, 1, 2]) is None
        assert scalar_best_split(X, y0, [0, 1, 2], N_CLASSES) is None

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 40),
        d=st.integers(1, 8),
        n_classes=st.integers(1, 14),
    )
    def test_generated_matrices(self, data, n, d, n_classes):
        values = st.one_of(st.integers(-3, 3).map(float),
                           st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
        X = data.draw(arrays(np.float64, (n, d), elements=values))
        y0 = data.draw(arrays(np.intp, n, elements=st.integers(0, n_classes - 1)))
        features = np.array(sorted(data.draw(
            st.sets(st.integers(0, d - 1), min_size=1, max_size=d))))
        assert _vector_split(X, y0, features) == scalar_best_split(X, y0, features, N_CLASSES)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_grow_tree_matches_scalar_tree(self, seed):
        gen = np.random.default_rng(seed)
        X = np.round(gen.normal(size=(120, 40)), 1)
        y = gen.integers(1, 15, size=120)
        grown = grow_tree(X, y, tree_seed=[seed, 0, 1])
        oracle = scalar_grow_tree(X, y, tree_seed=[seed, 0, 1])
        assert (_preorder(ForestModel.from_preorder(*grown, d=40, seed=0))
                == _preorder(ForestModel(trees=[oracle], d=40, seed=0)))

    @pytest.mark.parametrize("seed", [3, 42])
    def test_rf_train_matches_scalar_trees(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(90, 25))
        y = gen.integers(1, 15, size=90)
        model = rf_train(X, y, m=6, seed=seed)
        boots = [bootstrap_indices(seed, b, 90) for b in range(6)]
        expected = ForestModel(trees=[scalar_grow_tree(X[boot], y[boot], tree_seed=[seed, b, 1])
                                      for b, boot in enumerate(boots)], d=25, seed=seed)
        assert _preorder(model) == _preorder(expected)


class TestRfTrain:
    def test_single_tree_forest_equals_tree(self):
        gen = np.random.default_rng(5)
        X = gen.normal(size=(30, 4))
        y = gen.integers(1, 4, size=30)
        model = rf_train(X, y, m=1, seed=9)
        boot = bootstrap_indices(9, 0, 30)
        solo = grow_tree(X[boot], y[boot], tree_seed=[9, 0, 1])
        expected = per_tree_predict_proba(ForestModel.from_preorder(*solo, d=4, seed=9), X[:10])
        assert model.predict_proba(X[:10]).tobytes() == expected.tobytes()

    def test_seed_determinism(self):
        gen = np.random.default_rng(6)
        X = gen.normal(size=(25, 3))
        y = gen.integers(1, 3, size=25)
        a = rf_train(X, y, m=5, seed=1)
        b = rf_train(X, y, m=5, seed=1)
        c = rf_train(X, y, m=5, seed=2)
        probe = gen.normal(size=(12, 3))
        assert np.array_equal(a.predict_batch(probe), b.predict_batch(probe))
        assert _preorder(a) == _preorder(b)
        assert _preorder(a) != _preorder(c)

    def test_two_rows_are_enough_one_is_not(self):
        X, y = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([3, 9])
        model = rf_train(X, y, m=8, seed=4)
        boots = [bootstrap_indices(4, b, 2) for b in range(8)]
        expected = ForestModel(trees=[scalar_grow_tree(X[boot], y[boot], tree_seed=[4, b, 1])
                                      for b, boot in enumerate(boots)], d=2, seed=4)
        assert _preorder(model) == _preorder(expected)
        assert model.predict_batch(X).tolist() == [3, 9]
        with pytest.raises(ValueError, match="need at least 2 samples"):
            rf_train(X[:1], y[:1], m=8, seed=4)

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
        model = rf_train(X, y, m=7, seed=3)
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
        model = rf_train(X, y, m=6, seed=4)
        reversed_model = ForestModel(trees=list(reversed(model.trees)), d=3, seed=4)
        probe = gen.normal(size=(10, 3))
        for x in probe:
            assert np.allclose(rf_predict_proba(model, x),
                               rf_predict_proba(reversed_model, x), atol=1e-15)

    def test_dimension_check(self):
        model = self._two_leaf_forest()
        with pytest.raises(ValueError, match="length"):
            rf_predict_proba(model, np.zeros(5))
        with pytest.raises(ValueError, match="length"):
            rf_predict_proba(model, np.zeros((1, 2)))


def _assert_matches_oracle(model: ForestModel, X) -> None:
    """Probabilities byte-equal to the per-tree walk; predictions its argmax."""
    expected = per_tree_predict_proba(model, X)
    probs = model.predict_proba(X)
    assert probs.shape == expected.shape and probs.tobytes() == expected.tobytes()
    assert np.array_equal(model.predict_batch(X), np.argmax(expected, axis=1) + 1)


def _leaf(counts) -> TreeNode:
    return TreeNode(counts=np.array(counts, dtype=np.int64))


class TestFlatWalk:
    """The vectorized walk against the one-row, one-tree oracle."""

    @pytest.fixture(scope="class")
    def data(self):
        gen = np.random.default_rng(12)
        y = gen.integers(1, 6, size=40)
        X = gen.normal(size=(5, 6))[y - 1] + gen.normal(size=(40, 6))
        return X, y, gen.normal(scale=1.5, size=(25, 6))

    @pytest.mark.parametrize("m", (50, 100, 2000))
    def test_seeded_forests(self, data, m):
        X, y, probe = data
        # 20 training rows keep the 2000-tree forest quick to grow
        model = rf_train(X[:20], y[:20], m=m, seed=m)
        _assert_matches_oracle(model, np.vstack([X, probe]))

    def test_single_leaf_trees_among_deep_ones(self, data):
        X, y, probe = data
        deep = rf_train(X, y, m=4, seed=1).trees
        assert all(not tree.is_leaf for tree in deep)
        trees = [_leaf([0, 3] + [0] * 12), deep[0], deep[1], _leaf([1] * 14), deep[2],
                 deep[3], _leaf([0] * 13 + [7])]
        model = ForestModel(trees=trees, d=6, seed=0)
        assert model.roots.tolist()[:2] == [0, 1]
        _assert_matches_oracle(model, np.vstack([X, probe]))

    def test_criterion_6_fixtures_and_tie(self):
        two = ForestModel(trees=[_leaf([0, 0, 4] + [0] * 11), _leaf([0] * 4 + [9] + [0] * 9)],
                          d=3, seed=0)
        gen = np.random.default_rng(3)
        five = ForestModel(trees=[_leaf(gen.integers(0, 20, size=14) + (np.arange(14) == i))
                                  for i in range(5)], d=3, seed=0)
        X = np.zeros((2, 3))
        for model in (two, five):
            assert model.depth == 0
            _assert_matches_oracle(model, X)
        assert two.predict_batch(X).tolist() == [3, 3]  # tie toward the lowest id

    def test_inputs_at_thresholds_and_infinities(self, data):
        X, y, _ = data
        model = rf_train(X, y, m=20, seed=4)
        splits = np.flatnonzero(model.left != np.arange(len(model.left)))
        at = np.tile(X[:1], (len(splits), 1))
        at[np.arange(len(splits)), model.feature[splits]] = model.threshold[splits]
        inf = np.array([np.full(6, np.inf), np.full(6, -np.inf), [np.inf, -np.inf] * 3])
        probe = np.vstack([at, inf, np.where(X[:5] > 0, np.inf, -np.inf)])
        _assert_matches_oracle(model, probe)
        # a value at a threshold goes left, one just above it right
        above = at.copy()
        above[np.arange(len(splits)), model.feature[splits]] = np.nextafter(
            model.threshold[splits], np.inf)
        _assert_matches_oracle(model, above)

    def test_zero_rows_and_one_dimensional_input(self, data):
        X, y, _ = data
        model = rf_train(X, y, m=5, seed=2)
        assert model.predict_proba(np.zeros((0, 6))).shape == (0, 14)
        assert model.predict_batch(np.zeros((0, 6))).shape == (0,)
        _assert_matches_oracle(model, np.zeros((0, 6)))
        _assert_matches_oracle(model, X[3])
        assert model.predict_proba(X[3]).tobytes() == rf_predict_proba(model, X[3]).tobytes()
        assert model.predict_batch(X[3]).tolist() == [rf_predict(model, X[3])]

    @pytest.mark.parametrize("shape", [(3, 5), (1, 7), (0, 5), (7,), (2, 3, 6)])
    def test_wrong_width_raises(self, data, shape):
        X, y, _ = data
        model = rf_train(X, y, m=3, seed=2)
        with pytest.raises(ValueError, match="forest expects length 6"):
            model.predict_batch(np.zeros(shape))

    def test_empty_forest_refused(self):
        with pytest.raises(ValueError, match="at least one tree"):
            ForestModel(trees=[], d=3, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(1, 8),
        probe=arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)),
                     elements=st.floats(allow_nan=True, allow_infinity=True)),
    )
    def test_hypothesis_matches_oracle(self, seed, m, probe):
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(24, 3)).round(1)
        y = gen.integers(1, 4, size=24)
        model = rf_train(X, y, m=m, seed=seed)
        _assert_matches_oracle(model, np.vstack([probe, X[:4]]))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(9)
        X = gen.normal(size=(40, 4))
        y = gen.integers(1, 5, size=40)
        model = rf_train(X, y, m=4, seed=11)
        path = tmp_path / "forest.json"
        model.save(path)
        loaded = ForestModel.load(path)
        assert loaded.d == 4 and loaded.m == 4 and loaded.seed == 11
        probe = gen.normal(size=(15, 4))
        for x in probe:
            assert np.allclose(rf_predict_proba(loaded, x), rf_predict_proba(model, x))

    def test_format_tag_checked(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"format": "zzz"}')
        with pytest.raises(ValueError, match="format 'zzz' is not"):
            ForestModel.load(tmp_path / "bad.json")


def _stump(feature=0, threshold=0.5, counts=(1,) + (0,) * 13) -> TreeNode:
    """One split over two leaves, the left one holding `counts`."""
    return TreeNode(feature=feature, threshold=threshold, left=TreeNode(counts=counts),
                    right=_leaf([0, 2] + [0] * 12))


class TestNodeChecks:
    """Numbering checks built trees as it checks trained and loaded ones."""

    @pytest.mark.parametrize("feature", [0.9, 1.0, "1", True, np.bool_(True), None, -1, 3])
    def test_split_feature_not_an_integer_in_range(self, feature):
        with pytest.raises(ValueError, match="split feature"):
            ForestModel(trees=[_leaf([1] * 14), _stump(feature=feature)], d=3, seed=0)

    @pytest.mark.parametrize("threshold", [True, np.bool_(True), "0.5", None, float("nan"),
                                           float("-inf")])
    def test_threshold_not_a_finite_number(self, threshold):
        with pytest.raises(ValueError, match="split threshold"):
            ForestModel(trees=[_stump(threshold=threshold)], d=3, seed=0)

    @pytest.mark.parametrize("counts", [
        [2.7] + [0] * 13, ["3"] + [0] * 13, [True] + [0] * 13, np.ones(14, dtype=bool),
        np.ones(14), np.ones((14, 2), dtype=int), np.array(5), [1] * 13, [1] * 15,
        [-1, 2] + [0] * 12, [0] * 14])
    def test_leaf_counts_not_fourteen_counts(self, counts):
        with pytest.raises(ValueError, match="leaf counts"):
            ForestModel(trees=[_leaf([1] * 14), _stump(counts=counts)], d=3, seed=0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_split_missing_a_child(self, side):
        split = _stump()
        setattr(split, side, None)
        with pytest.raises(ValueError, match="missing a child"):
            ForestModel(trees=[split], d=3, seed=0)

    def test_ints_floats_and_integer_arrays_accepted(self):
        trees = [_stump(2, 1, [np.int64(3)] + [0] * 13),
                 _stump(np.int64(1), np.float32(-0.5), np.arange(14, dtype=np.uint8)),
                 _stump(np.uint8(0), np.float64(0.25))]
        model = ForestModel(trees=trees, d=3, seed=0)
        assert model.feature.tolist() == [2, -1, -1, 1, -1, -1, 0, -1, -1]
        assert model.threshold.tolist() == [1.0, 0.0, 0.0, -0.5, 0.0, 0.0, 0.25, 0.0, 0.0]
        assert model.dist[4].tolist() == (np.arange(14) / 91).tolist()

    def test_every_leaf_holds_an_int64_row(self, tmp_path):
        """Trained, built and loaded leaves alike, so their counts take arithmetic."""
        gen = np.random.default_rng(5)
        X = gen.normal(size=(30, 4))
        y = gen.integers(1, 15, size=30)
        trained = rf_train(X, y, m=3, seed=2)
        trained.save(tmp_path / "rf.json")
        loaded = ForestModel.load(tmp_path / "rf.json")
        built = ForestModel(trees=[_stump(counts=[3] + [0] * 13)], d=4, seed=0)
        for model in trained, loaded, built:
            for tree in model.trees:
                todo = [tree]
                while todo:
                    node = todo.pop()
                    if node.is_leaf:
                        assert node.counts.dtype == np.int64 and node.counts.shape == (14,)
                    else:
                        todo += [node.left, node.right]
        assert np.array_equal(per_tree_predict_proba(loaded, X), trained.predict_proba(X))


class TestPreorder:
    """Built and trained forests are one form: preorder lists, numbered in one pass."""

    def test_trees_view_builds_the_same_forest(self):
        gen = np.random.default_rng(10)
        X = gen.normal(size=(50, 5))
        y = gen.integers(1, 15, size=50)
        trained = rf_train(X, y, m=5, seed=3)
        built = ForestModel(trees=trained.trees, d=5, seed=3)
        for name in ("feature", "threshold", "counts", "left", "right", "roots", "dist"):
            assert getattr(built, name).tobytes() == getattr(trained, name).tobytes()
        assert (built.depth, built.m) == (trained.depth, 5)

    def test_numbering_of_two_trees(self):
        # a stump, then a split whose left child is a split
        model = ForestModel.from_preorder([1, -1, -1, 0, 2, -1, -1, -1], [0.5] + [0.0] * 7,
                                          np.eye(14, dtype=int)[:5], d=3, seed=0)
        assert model.roots.tolist() == [0, 3]
        assert model.left.tolist() == [1, 1, 2, 4, 5, 5, 6, 7]
        assert model.right.tolist() == [2, 1, 2, 7, 6, 5, 6, 7]
        assert model.depth == 2
        assert np.array_equal(model.dist[model.feature == -1], np.eye(14)[:5])

    def test_chain_of_3000_splits_is_numbered_without_recursion(self):
        splits = 3000
        # the deepest split's left leaf holds class 2, every right leaf class 1
        model = ForestModel.from_preorder([0] * splits + [-1] * (splits + 1),
                                          [0.0] * (2 * splits + 1),
                                          [0, 1] + [0] * 12 + ([1] + [0] * 13) * splits,
                                          d=1, seed=0)
        assert model.depth == splits and model.right[0] == 2 * splits
        assert model.predict_batch(np.array([[1.0], [-1.0]])).tolist() == [1, 2]
        assert len(model.trees) == 1
