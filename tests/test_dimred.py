from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import centered_copy_pca, sparse_projection, uniforms

from hwr import dataset, dimred, workers
from hwr.dimred import (
    PcaModel,
    ProjectionMatrix,
    jl_min_dim,
    pca_fit,
    pca_reduce,
    pca_transform,
    project,
    rp_fit,
)


def _dense(P: ProjectionMatrix) -> np.ndarray:
    """P's (k, d) entries; a sparse P's equal those of the scipy oracle drawn from (d, k, seed)."""
    if P.kind == "sparse":
        assert P.matrix.tobytes() == sparse_projection(P.d, P.k, P.seed).toarray().tobytes()
    return P.matrix


class TestPcaFit:
    def test_collinear_data(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])
        X = np.column_stack([x, 2 * x])
        model = pca_fit(X, 2)
        expected = np.array([1.0, 2.0]) / math.sqrt(5.0)
        assert np.allclose(model.components[0], expected, atol=1e-12)
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-20)

    def test_full_rank_round_trip(self):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(40, 8))
        model = pca_fit(X, 8)
        Z = pca_transform(model, X)
        assert np.allclose(model.inverse_transform(Z), X, atol=1e-8)

    def test_four_point_example_against_covariance_oracle(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        # independent oracle: eigendecomposition of the sample covariance
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (X.shape[0] - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = eigvecs[:, np.argmax(eigvals)]
        model = pca_fit(X, 1)
        assert np.allclose(np.abs(model.components[0]), np.abs(top), atol=1e-12)
        assert np.allclose(model.components[0], [1.0, 0.0], atol=1e-12)
        assert model.explained_variance[0] == pytest.approx(max(eigvals))
        assert model.explained_variance[0] == pytest.approx(4.0 / 3.0)

    def test_k_out_of_range(self):
        X = np.random.default_rng(1).normal(size=(5, 3))
        with pytest.raises(ValueError):
            pca_fit(X, 0)
        with pytest.raises(ValueError):
            pca_fit(X, 4)  # k > min(n-1, d)

    def test_rank_deficient_padding(self):
        gen = np.random.default_rng(2)
        base = gen.normal(size=(12, 2))
        X = base @ gen.normal(size=(2, 6))  # rank 2 in 6 dims
        model = pca_fit(X, 5)
        iden = model.components @ model.components.T
        assert np.allclose(iden, np.eye(5), atol=1e-8)
        assert model.explained_variance[2:] == pytest.approx(0.0, abs=1e-16)


class TestPcaTransform:
    def test_training_mean_maps_to_zero(self):
        gen = np.random.default_rng(3)
        X = gen.normal(size=(20, 5))
        model = pca_fit(X, 3)
        z = pca_transform(model, X.mean(axis=0, keepdims=True))
        assert np.allclose(z, 0.0, atol=1e-12)

    def test_identity_components(self):
        model = PcaModel(
            mean=np.zeros(3),
            components=np.eye(3),
            explained_variance=np.ones(3),
        )
        X = np.random.default_rng(4).normal(size=(6, 3))
        assert np.allclose(pca_transform(model, X), X)

    def test_four_point_example_projection(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        model = pca_fit(X, 1)
        assert np.allclose(pca_transform(model, X).ravel(), [-1.0, 1.0, -1.0, 1.0])

    def test_dimension_mismatch(self):
        model = pca_fit(np.random.default_rng(5).normal(size=(10, 4)), 2)
        with pytest.raises(ValueError, match="columns"):
            pca_transform(model, np.zeros((3, 5)))


class TestPcaInvariants:
    def test_components_orthonormal(self):
        X = np.random.default_rng(6).normal(size=(30, 12))
        model = pca_fit(X, 8)
        assert np.abs(model.components @ model.components.T - np.eye(8)).max() < 1e-8

    def test_total_variance_conserved(self):
        X = np.random.default_rng(7).normal(size=(25, 10))
        model = pca_fit(X, 10)
        total = ((X - X.mean(axis=0)) ** 2).sum() / (X.shape[0] - 1)
        assert model.explained_variance.sum() == pytest.approx(total, rel=1e-6)

    def test_transformed_training_columns_centered(self):
        X = np.random.default_rng(8).normal(size=(40, 6))
        model = pca_fit(X, 4)
        Z = pca_transform(model, X)
        assert np.abs(Z.mean(axis=0)).max() < 1e-10

    def test_explained_variance_nonincreasing(self):
        X = np.random.default_rng(9).normal(size=(30, 8))
        model = pca_fit(X, 7)
        assert (np.diff(model.explained_variance) <= 1e-12).all()

    def test_sign_convention_largest_entry_positive(self):
        X = np.random.default_rng(10).normal(size=(30, 8))
        model = pca_fit(X, 5)
        lead = np.argmax(np.abs(model.components), axis=1)
        assert (model.components[np.arange(5), lead] > 0).all()


def _model_and_rows_bytes(model: PcaModel, rows: np.ndarray) -> tuple[bytes, ...]:
    return (model.mean.tobytes(), model.components.tobytes(),
            model.explained_variance.tobytes(), rows.tobytes())


class TestPcaReduce:
    """`pca_reduce` consumes X and gives `pca_fit` and `pca_transform`'s bytes, which are
    those of the SVD of a centered copy (the oracle)."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        """Two CPUs, so that more than one block of rows forks workers."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @staticmethod
    def _assert_fit_then_transform(X: np.ndarray, k: int) -> None:
        expected_model = pca_fit(X.copy(), k)
        expected = _model_and_rows_bytes(expected_model, pca_transform(expected_model, X))
        centered = (X - X.mean(axis=0)).tobytes()
        consumed = X.copy()
        assert _model_and_rows_bytes(*pca_reduce(consumed, k)) == expected
        assert consumed.tobytes() == centered
        assert _model_and_rows_bytes(*centered_copy_pca(X, k)) == expected

    # one inline block, one full block, and forked blocks with a short last one
    @pytest.mark.parametrize("n, d, k", [(2, 1, 1), (12, 40, 11), (workers.BLOCK, 300, 30),
                                         (workers.BLOCK + 1, 30, 30),
                                         (2 * workers.BLOCK + 2, 500, 50)])
    def test_seeded_matrices(self, n, d, k):
        self._assert_fit_then_transform(np.random.default_rng(n * d).normal(size=(n, d)), k)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.sampled_from([2, 3, 17, workers.BLOCK, workers.BLOCK + 3]),
           d=st.integers(1, 12))
    def test_any_matrix(self, data, n, d):
        X = data.draw(arrays(np.float64, (n, d), elements=st.floats(-1e6, 1e6)))
        self._assert_fit_then_transform(X, data.draw(st.integers(1, min(n - 1, d))))

    @pytest.mark.parametrize("shape, k, bad", [((1, 5), 1, None), ((6, 4), 0, None),
                                               ((6, 4), 5, None), ((4, 9), 4, None),
                                               ((6, 4), 2, np.nan), ((6, 4), 2, np.inf),
                                               ((6, 4), 2, -np.inf)])
    def test_refusal_leaves_the_matrix_as_it_was(self, shape, k, bad):
        X = np.random.default_rng(3).normal(size=shape)
        if bad is not None:
            X[-1, -1] = bad
        before = X.tobytes()
        with pytest.raises(ValueError) as refused:
            pca_reduce(X, k)
        with pytest.raises(ValueError) as refused_by_fit:
            pca_fit(X, k)
        assert str(refused.value) == str(refused_by_fit.value)
        assert X.tobytes() == before


class TestRandomProjection:
    def test_shape(self):
        P = rp_fit("gaussian", 17, 5, seed=0)
        assert (P.k, P.d) == (5, 17)
        assert _dense(P).shape == (5, 17)

    def test_sparse_distribution_statistics(self):
        d = k = 1000  # one million entries
        P = rp_fit("sparse", d, k, seed=99)
        dense = _dense(P)
        n_entries = d * k
        nonzero = np.count_nonzero(dense)
        assert abs(nonzero / n_entries - 1 / 3) < 0.01
        n_pos = int((dense > 0).sum())
        n_neg = int((dense < 0).sum())
        # each entry: +1 w.p. 1/6, -1 w.p. 1/6 -> var(n_pos - n_neg) = n/3
        assert abs(n_pos - n_neg) <= 3 * math.sqrt(n_entries / 3.0)
        scale = math.sqrt(3.0 / k)
        values = np.unique(dense)
        assert np.allclose(sorted(values), [-scale, 0.0, scale])

    def test_gaussian_entries_scaled(self):
        P = rp_fit("gaussian", 200, 50, seed=5)
        std = _dense(P).std()
        assert abs(std - 1 / math.sqrt(50)) < 0.01

    def test_gaussian_entries_are_the_documented_draw_pairs(self):
        """Entry t is sqrt(-2 ln(1 - u[2t])) cos(2 pi u[2t+1]) / sqrt(k), over more than one
        rng.CHUNK of draw pairs."""
        d, k = 200, 100
        u = uniforms(7, 2 * d * k)
        want = np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2]) / math.sqrt(k)
        got = rp_fit("gaussian", d, k, seed=7).matrix.ravel()
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_determinism(self):
        a = rp_fit("sparse", 40, 10, seed=7)
        b = rp_fit("sparse", 40, 10, seed=7)
        c = rp_fit("sparse", 40, 10, seed=8)
        assert np.array_equal(_dense(a), _dense(b))
        assert not np.array_equal(_dense(a), _dense(c))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            rp_fit("uniform", 4, 2, seed=0)

    @pytest.mark.parametrize("d, k, seed", [(3780, 733, 42), (3780, 316, 7), (1, 1, 0), (1, 9, 3),
                                            (9, 1, 3), (40, 10, 2**64 - 1)])
    def test_sparse_entries_are_the_oracle_matrix(self, d, k, seed):
        P = rp_fit("sparse", d, k, seed)
        assert P.matrix.dtype == np.float64 and P.matrix.shape == (k, d)
        assert P.matrix.tobytes() == sparse_projection(d, k, seed).toarray().tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "sparse"])
    def test_seed_taken_modulo_2_64(self, kind):
        drawn = [rp_fit(kind, 30, 8, seed).matrix for seed in (-1, 2**64 - 1, 2**65 - 1)]
        assert drawn[0].tobytes() == drawn[1].tobytes() == drawn[2].tobytes()
        assert drawn[0].tobytes() != rp_fit(kind, 30, 8, 2**64 - 2).matrix.tobytes()

    @pytest.mark.parametrize("p", [1.0 / 6.0, 1.0 / 3.0])
    def test_sparse_thresholds_are_the_uniform_comparisons(self, p):
        """An output out draws u = (out >> 11) * 2**-53; rp_fit compares out itself."""
        threshold = {1.0 / 6.0: dimred._SIXTH, 1.0 / 3.0: dimred._THIRD}[p]
        top = int(threshold) >> 11
        assert top << 11 == int(threshold)
        for bits in (top - 1, top):
            for low in (0, 1, 2**11 - 1):
                out = np.uint64((bits << 11) | low)
                assert bool(out < threshold) == (bits * 2.0**-53 < p)
        assert (top - 1) * 2.0**-53 < p <= top * 2.0**-53


class TestProject:
    def test_zero_matrix(self):
        P = rp_fit("gaussian", 6, 3, seed=0)
        out = project(P, np.zeros((4, 6)))
        assert np.allclose(out, 0.0)
        assert out.shape == (4, 3)

    def test_identity_projection(self):
        P = ProjectionMatrix(kind="gaussian", seed=0, d=5, k=5, matrix=np.eye(5))
        X = np.random.default_rng(11).normal(size=(7, 5))
        assert np.allclose(project(P, X), X)

    def test_linearity(self):
        P = rp_fit("sparse", 30, 8, seed=3)
        gen = np.random.default_rng(12)
        X, Y = gen.normal(size=(2, 9, 30))
        a, b = 1.7, -0.4
        lhs = project(P, a * X + b * Y)
        rhs = a * project(P, X) + b * project(P, Y)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_dimension_mismatch(self):
        P = rp_fit("gaussian", 6, 3, seed=0)
        with pytest.raises(ValueError, match="columns"):
            project(P, np.zeros((2, 7)))


class TestRpReduce:
    """`rp_reduce`, which never holds the k x d matrix, writes the bytes of `rp_fit` and
    `project`: the same hwr-rp/2 file and the same reduced FMX."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        """Two CPUs, so that more than one block of projection rows forks workers."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    # one block; one of 65 rows, a one-row tail folded in; two blocks, the second of one
    # row more; and the JL dimension.  Feature rows in one block of `project` and in three.
    @pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 128, 129, 733])
    @pytest.mark.parametrize("n", [40, 2 * workers.BLOCK + 2])
    @pytest.mark.parametrize("kind", ["gaussian", "sparse"])
    def test_files_are_those_of_rp_fit_and_project(self, kind, n, k, tmp_path):
        gen = np.random.default_rng([n, k])
        X = np.abs(gen.normal(size=(n, 3780)))
        X[:, ::5] = 0.0  # exact zeros, as HOG rows have
        model, reduced = dimred.rp_reduce(kind, X, k, seed=42)
        assert model.matrix is None
        expected = rp_fit(kind, 3780, k, seed=42)
        model.save(tmp_path / "got.json")
        expected.save(tmp_path / "want.json")
        dataset.write_fmx(reduced, tmp_path / "got.fmx")
        dataset.write_fmx(expected.transform(X), tmp_path / "want.fmx")
        for suffix in (".json", ".fmx"):
            got, want = (tmp_path / f"{name}{suffix}" for name in ("got", "want"))
            assert got.read_bytes() == want.read_bytes(), suffix

    def test_refuses_what_rp_fit_refuses(self):
        X = np.ones((3, 4))
        for kind, k in (("uniform", 2), ("sparse", 0), ("gaussian", -1)):
            with pytest.raises(ValueError) as want:
                rp_fit(kind, 4, k, seed=0)
            with pytest.raises(ValueError) as got:
                dimred.rp_reduce(kind, X, k, seed=0)
            assert str(got.value) == str(want.value)


# values whose sums cannot overflow, and the rows of one block, of one more, and of three
_VALUES = st.floats(-1e150, 1e150) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])
_ROWS = [1, workers.BLOCK - 1, workers.BLOCK, workers.BLOCK + 1, 2 * workers.BLOCK + 2]


def _oracle_product(X: np.ndarray, d: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The scipy oracle's CSR product of X's rows, and how far a correctly rounded
    product in another summation order may lie from it.

    Two d-term dot products each lie within (d + 1) * 2**-53 of the sum of their
    terms' magnitudes from the exact value, plus half a subnormal step per term.
    """
    oracle = sparse_projection(d, k, seed)
    magnitude = (abs(oracle) @ np.abs(X).T).T
    return (oracle @ X.T).T, 2 * (d + 1) * 2.0**-53 * magnitude + d * 2.0**-1074


def _project(P: ProjectionMatrix, X: np.ndarray, order: str) -> np.ndarray:
    if order == "whole-batch":
        return project(P, X)
    return np.vstack([project(P, X[i:i + 1]) for i in range(len(X))])


class TestSparseProduct:
    """`project` with a sparse P gives the scipy oracle's CSR product, to rounding, and
    exactly where a row has at most one nonzero term."""

    @pytest.fixture(params=[1, 2], ids=["inline", "forked"])
    def cpus(self, request, monkeypatch) -> int:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        return request.param

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(1, 400), k=st.integers(1, 30), seed=st.integers(0, 2**64 - 1),
           rows=st.sampled_from(_ROWS), data=st.data())
    def test_product_equals_the_oracle(self, cpus, d, k, seed, rows, data):
        X = data.draw(arrays(np.float64, (rows, d), elements=_VALUES,
                             fill=st.sampled_from([0.0, -0.0])))
        got = project(rp_fit("sparse", d, k, seed), X)
        expected, bound = _oracle_product(X, d, k, seed)
        assert got.shape == (rows, k)
        assert (np.abs(got - expected) <= bound).all()

    @pytest.mark.parametrize("rows", _ROWS)
    @pytest.mark.parametrize("d, k", [(1, 1), (1, 30), (30, 1), (300, 40)])
    @pytest.mark.parametrize("order", ["whole-batch", "row-by-row"])
    def test_signed_zero_and_one_entry_rows_equal_the_oracle(self, cpus, d, k, rows, order):
        gen = np.random.default_rng(rows)
        X = gen.normal(size=(rows, d))
        X[::3] = -0.0
        X[1::3, 1:] = 0.0
        got = _project(rp_fit("sparse", d, k, seed=rows), X, order)
        expected, bound = _oracle_product(X, d, k, rows)
        exact = np.arange(rows) % 3 < 2
        assert np.array_equal(got[exact], expected[exact])
        assert (np.abs(got - expected) <= bound).all()

    @pytest.mark.parametrize("d", [30, 400])
    def test_one_output_has_the_same_bits_alone_or_in_a_block(self, cpus, d):
        """At k = 1 one row, alone or as the last block of BLOCK + 1, has a single output,
        the oracle's to rounding, whose bits do not depend on the batch."""
        X = np.random.default_rng(d).normal(size=(workers.BLOCK + 1, d))
        P = rp_fit("sparse", d, 1, seed=d)
        got = project(P, X)
        expected, bound = _oracle_product(X, d, 1, d)
        assert (np.abs(got - expected) <= bound).all()
        assert got.tobytes() == _project(P, X, "row-by-row").tobytes()


class TestJlMinDim:
    @pytest.mark.parametrize("eps, expected", [(0.5, 316), (0.3, 733), (0.2, 1523)])
    def test_table_dimensions(self, eps, expected):
        assert jl_min_dim(736, eps) == expected

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            jl_min_dim(736, 0.0)
        with pytest.raises(ValueError):
            jl_min_dim(736, 1.0)
        with pytest.raises(ValueError):
            jl_min_dim(1, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10_000), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_monotone(self, n, eps_a, eps_b):
        lo, hi = sorted((eps_a, eps_b))
        assert jl_min_dim(n, lo) >= jl_min_dim(n, hi)
        assert jl_min_dim(n + 100, eps_a) >= jl_min_dim(n, eps_a)


class TestSerialization:
    def test_pca_round_trip(self, tmp_path):
        X = np.random.default_rng(13).normal(size=(15, 6))
        model = pca_fit(X, 4)
        path = tmp_path / "pca.json"
        model.save(path)
        loaded = PcaModel.load(path)
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.components, model.components)
        assert np.array_equal(loaded.explained_variance, model.explained_variance)
        Z = np.random.default_rng(14).normal(size=(3, 6))
        assert np.array_equal(pca_transform(loaded, Z), pca_transform(model, Z))

    @pytest.mark.parametrize("kind", ["gaussian", "sparse"])
    def test_projection_round_trip(self, kind, tmp_path):
        P = rp_fit(kind, 25, 7, seed=21)
        path = tmp_path / "rp.json"
        P.save(path)
        loaded = ProjectionMatrix.load(path)
        assert loaded.kind == kind
        assert loaded.seed == 21
        assert json.loads(path.read_text(encoding="utf-8"))["generator"] == "splitmix64"
        assert np.array_equal(_dense(loaded), _dense(P))

    def test_load_reducer_dispatch(self, tmp_path):
        X = np.random.default_rng(15).normal(size=(10, 4))
        pca_fit(X, 2).save(tmp_path / "a.json")
        rp_fit("sparse", 4, 2, seed=0).save(tmp_path / "b.json")
        assert isinstance(dimred.load_reducer(tmp_path / "a.json"), PcaModel)
        assert isinstance(dimred.load_reducer(tmp_path / "b.json"), ProjectionMatrix)
        (tmp_path / "c.json").write_text('{"format": "other/1"}')
        with pytest.raises(ValueError, match="format"):
            dimred.load_reducer(tmp_path / "c.json")
