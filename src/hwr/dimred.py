"""Dimensionality reduction: PCA, Gaussian and sparse random projections.

PCA is fit by SVD of the centered data matrix (numerically safer than a
covariance eigendecomposition); explained variances use the n-1 convention
and component signs are fixed so the largest-magnitude entry of each axis is
positive, which makes serialized models reproducible.

Random projections draw from the documented splitmix64 stream (see hwr.rng)
so a matrix is fully determined by (kind, d, k, seed), and a projection file
stores only those and the generator's name; loading it draws the matrix
again:

* gaussian: entry t (row-major) = sqrt(-2*ln(1 - u[2t])) * cos(2*pi*u[2t+1])
  / sqrt(k), i.e. one Box-Muller cosine draw per entry, N(0, 1/k).
* sparse (Achlioptas s=3): entry t is +sqrt(3/k) if u[t] < 1/6, -sqrt(3/k)
  if 1/6 <= u[t] < 1/3, else 0.

PCA and both projections reduce a batch one row at a time, each row by one
BLAS product of the shape a lone row makes, so a reduced row has the same
bits whatever the batch, the block or the worker that holds it: `hwr predict`
reduces an image to the bits `hwr reduce` wrote for it.  A transform takes
`dataset.rows`; a fit also refuses empty or non-finite data.  `rp_reduce`, the
projection of `hwr reduce`, never holds the k x d matrix: it draws and applies
it BLOCK rows at a time, to the same bits.

Table-matching target dimensions come from the Johnson-Lindenstrauss bound
jl_min_dim(n=736, eps=0.5/0.3/0.2) = 316/733/1523.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import dataset, rng, workers

# u = (out >> 11) * 2**-53, the uniform of splitmix64 output `out` (hwr.rng), is
# exact, so u < p exactly when out >> 11 < ceil(p * 2**53), that is when
# out < ceil(p * 2**53) << 11; the product p * 2**53 is exact too.
_SIXTH, _THIRD = (np.uint64(math.ceil(2.0**53 * p) << 11) for p in (1.0 / 6.0, 1.0 / 3.0))


def _as_matrix(X: np.ndarray) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"X must be a nonempty 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("X contains non-finite values")
    return arr


@dataclass
class PcaModel:
    FORMAT = "hwr-pca/2"

    mean: np.ndarray                # (d,)
    components: np.ndarray          # (k, d), rows orthonormal
    explained_variance: np.ndarray  # (k,), non-increasing

    @property
    def d(self) -> int:
        return self.components.shape[1]

    @property
    def k(self) -> int:
        return self.components.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        return pca_transform(self, X)

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        return dataset.rows(Z, self.k) @ self.components + self.mean

    def save(self, path: str | os.PathLike) -> None:
        dataset.write_model(path, {
            "format": self.FORMAT,
            "d": self.d,
            "k": self.k,
            "mean": dataset.pack(self.mean),
            "components": dataset.pack(self.components),
            "explained_variance": dataset.pack(self.explained_variance),
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "PcaModel":
        d, k = dataset.size(doc, "d"), dataset.size(doc, "k")
        return cls(
            mean=dataset.unpack(doc["mean"], d),
            components=dataset.unpack(doc["components"], k, d),
            explained_variance=dataset.unpack(doc["explained_variance"], k),
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PcaModel":
        return dataset.read_model(path, cls)


def pca_fit(X: np.ndarray, k: int) -> PcaModel:
    """Top-k principal axes of X by SVD of the centered matrix; X is left as it was.

    Requires 1 <= k <= min(n-1, d).  On rank-deficient data the trailing
    components are still orthonormal basis vectors (from the SVD) with
    near-zero explained variance.
    """
    return _fit_centering(np.array(X, dtype=np.float64), k)[0]


def pca_reduce(X: np.ndarray, k: int) -> tuple[PcaModel, np.ndarray]:
    """``pca_fit(X, k)`` and X's rows reduced by it, bit for bit, holding no second matrix.

    The fit consumes X: a float64 X is centered in place, so the SVD and the
    projection both read its rows.  Each reduced row is the subtraction and
    the one-row product of `pca_transform`.
    """
    model, centered = _fit_centering(X, k)
    return model, _rows_times(centered, model.components)


def _fit_centering(X: np.ndarray, k: int) -> tuple[PcaModel, np.ndarray]:
    """The PCA model of X's rows, and those rows centered: in place once n, k and the
    values are checked, so a refused float64 X is left as it was."""
    X = _as_matrix(X)
    n, d = X.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 samples, got {n}")
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"k={k} out of range [1, {min(n - 1, d)}] for {n}x{d} data")
    mean = X.mean(axis=0)
    X -= mean
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    components = vt[:k].copy()
    del u, vt  # before the sign fix's temporaries and the caller's projection
    lead = np.argmax(np.abs(components), axis=1)
    flip = components[np.arange(k), lead] < 0
    components[flip] *= -1.0
    explained = s[:k] ** 2 / (n - 1)
    return PcaModel(mean=mean, components=components, explained_variance=explained), X


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    return _rows_times(dataset.rows(X, model.d) - model.mean, model.components)


@dataclass
class ProjectionMatrix:
    """A k x d random projection, held as its (k, d) float64 entries whatever its kind."""

    FORMAT = "hwr-rp/2"

    kind: str                 # "gaussian" | "sparse"
    seed: int
    d: int
    k: int
    matrix: np.ndarray | None  # (k, d) entries, redrawn from (kind, d, k, seed) on load;
                               # None in the one `rp_reduce` returns, which is only saved

    def transform(self, X: np.ndarray) -> np.ndarray:
        return project(self, X)

    def save(self, path: str | os.PathLike) -> None:
        dataset.write_model(path, {
            "format": self.FORMAT,
            "kind": self.kind,
            "generator": rng.GENERATOR_NAME,
            "seed": self.seed,
            "d": self.d,
            "k": self.k,
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "ProjectionMatrix":
        if doc["generator"] != rng.GENERATOR_NAME:
            raise ValueError(f"generator {doc['generator']!r} is not {rng.GENERATOR_NAME!r}")
        return rp_fit(doc["kind"], *(dataset.number(doc[key]) for key in ("d", "k", "seed")))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ProjectionMatrix":
        return dataset.read_model(path, cls)


def rp_fit(kind: str, d: int, k: int, seed: int) -> ProjectionMatrix:
    """Draw a k x d random projection, deterministic in (kind, d, k, seed)."""
    _check_projection(kind, d, k)
    matrix = np.empty((k, d))  # allocated first, so a shape too large for memory fails at once
    _draw(kind, k, seed, 0, matrix)
    return ProjectionMatrix(kind=kind, seed=seed, d=d, k=k, matrix=matrix)


def rp_reduce(kind: str, X: np.ndarray, k: int, seed: int) -> tuple[ProjectionMatrix, np.ndarray]:
    """``rp_fit(kind, d, k, seed)``, d the width of X, without its matrix, and X's rows
    projected by it, bit for bit, holding no k x d matrix.

    The projection is drawn and applied BLOCK rows at a time, one `workers.map_jobs`
    job per block: a job draws its rows and writes their columns of every reduced row
    by the one-row product of `project`.  Such a product has the bits of the whole
    matrix's, except for a one-row block, which numpy computes by another path; so a
    last block of one row joins the block before it.
    """
    X = _as_matrix(X)
    n, d = X.shape
    _check_projection(kind, d, k)
    starts = range(0, max(k - 1, 1), workers.BLOCK)  # no block starts at row k - 1 of k > 1
    # allocated before any draw, so a shape too large for memory fails at once
    out = workers.matrix(n, k, shared=len(starts) > 1)

    def block(r0: int) -> None:
        r1 = k if k - r0 <= workers.BLOCK + 1 else r0 + workers.BLOCK
        rows = np.empty((r1 - r0, d))
        _draw(kind, k, seed, r0, rows)
        _times_rows(X, rows.T, out[:, r0:r1])

    workers.map_jobs(block, starts)
    return ProjectionMatrix(kind=kind, seed=seed, d=d, k=k, matrix=None), out


def _check_projection(kind: str, d: int, k: int) -> None:
    if kind not in ("gaussian", "sparse"):
        raise ValueError(f"kind must be 'gaussian' or 'sparse', got {kind!r}")
    if d < 1 or k < 1:
        raise ValueError(f"dimensions must be >= 1, got d={d}, k={k}")


def _draw(kind: str, k: int, seed: int, first: int, rows: np.ndarray) -> None:
    """Fill ``rows``, of shape (r, d), with rows first..first+r-1 of the k x d projection,
    one rng.CHUNK of entries at a time, so that no draw outlives its step."""
    entries = rows.reshape(-1)
    offset = first * rows.shape[1]  # entry t of the matrix is entries[t - offset]
    if kind == "gaussian":
        # a step of 2 * CHUNK draws starts at an even draw: each pair u[2t], u[2t+1] is in one
        for start, bits in rng.blocks(seed, 2 * entries.size, 2 * rng.CHUNK, 2 * offset):
            bits >>= np.uint64(11)
            u = bits * 2.0**-53
            z = entries[start // 2:(start + len(u)) // 2]
            np.multiply(np.sqrt(-2.0 * np.log1p(-u[0::2])), np.cos(2.0 * np.pi * u[1::2]), out=z)
            z /= math.sqrt(k)
    else:
        scale = math.sqrt(3.0 / k)
        # an entry is values[c], c the number of the bounds _THIRD and _SIXTH its draw is below
        values = np.array([0.0, -scale, scale])
        for start, draws in rng.blocks(seed, entries.size, rng.CHUNK, offset):
            code = np.add(draws < _THIRD, draws < _SIXTH, dtype=np.uint8)
            np.take(values, code, out=entries[start:start + len(draws)])


def project(P: ProjectionMatrix, X: np.ndarray) -> np.ndarray:
    """The rows of X projected by P."""
    return _rows_times(dataset.rows(X, P.d), P.matrix)


def _rows_times(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``X @ M.T``, one row per BLAS product, in `workers.map_rows` blocks.

    Row i is ``np.matmul(X[i], M.T)`` whatever the other rows, so its bits do
    not depend on the batch, the block or the row's offset in memory.
    """
    MT = M.T
    return workers.map_rows(lambda start, stop, out: _times_rows(X[start:stop], MT, out),
                            X.shape[0], M.shape[0])[0]


def _times_rows(X: np.ndarray, MT: np.ndarray, out: np.ndarray) -> None:
    """Row i of ``out`` = ``np.matmul(X[i], MT)``, the product of a lone row."""
    for i, x in enumerate(X):
        np.matmul(x, MT, out=out[i])


def jl_min_dim(n: int, eps: float) -> int:
    """Johnson-Lindenstrauss minimum dimension for n points at distortion eps.

    floor(4*ln(n) / (eps^2/2 - eps^3/3)); reproduces 316/733/1523 at n=736,
    eps=0.5/0.3/0.2.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return math.floor(4.0 * math.log(n) / (eps**2 / 2.0 - eps**3 / 3.0))


def load_reducer(path: str | os.PathLike) -> PcaModel | ProjectionMatrix:
    """Open a serialized reduction model, dispatching on its format tag."""
    return dataset.read_model(path, PcaModel, ProjectionMatrix)
