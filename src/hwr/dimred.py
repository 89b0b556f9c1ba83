"""Dimensionality reduction: PCA, Gaussian and sparse random projections.

PCA is fit by SVD of the centered data matrix (numerically safer than a
covariance eigendecomposition); explained variances use the n-1 convention
and component signs are fixed so the largest-magnitude entry of each axis is
positive, which makes serialized models reproducible.

Random projections draw from the documented splitmix64 stream (see hwr.rng)
so a matrix is fully determined by (kind, d, k, seed):

* gaussian: entry t (row-major) = sqrt(-2*ln(1 - u[2t])) * cos(2*pi*u[2t+1])
  / sqrt(k), i.e. one Box-Muller cosine draw per entry, N(0, 1/k).
* sparse (Achlioptas s=3): entry t is +sqrt(3/k) if u[t] < 1/6, -sqrt(3/k)
  if 1/6 <= u[t] < 1/3, else 0.

Table-matching target dimensions come from the Johnson-Lindenstrauss bound
jl_min_dim(n=736, eps=0.5/0.3/0.2) = 316/733/1523.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import dataset, rng

def _as_matrix(X: np.ndarray, name: str = "X") -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass
class PcaModel:
    FORMAT = "hwr-pca/1"

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
        Z = _as_matrix(Z, "Z")
        if Z.shape[1] != self.k:
            raise ValueError(f"Z has {Z.shape[1]} columns, model produces {self.k}")
        return Z @ self.components + self.mean

    def save(self, path: str | os.PathLike) -> None:
        dataset.write_model(path, {
            "format": self.FORMAT,
            "d": self.d,
            "k": self.k,
            "mean": self.mean.tolist(),
            "components": self.components.ravel().tolist(),
            "explained_variance": self.explained_variance.tolist(),
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "PcaModel":
        d, k = int(doc["d"]), int(doc["k"])
        return cls(
            mean=np.array(doc["mean"], dtype=np.float64).reshape(d),
            components=np.array(doc["components"], dtype=np.float64).reshape(k, d),
            explained_variance=np.array(doc["explained_variance"], dtype=np.float64).reshape(k),
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PcaModel":
        return dataset.read_model(path, cls)


def pca_fit(X: np.ndarray, k: int) -> PcaModel:
    """Top-k principal axes of X by SVD of the centered matrix.

    Requires 1 <= k <= min(n-1, d).  On rank-deficient data the trailing
    components are still orthonormal basis vectors (from the SVD) with
    near-zero explained variance.
    """
    X = _as_matrix(X)
    n, d = X.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 samples, got {n}")
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"k={k} out of range [1, {min(n - 1, d)}] for {n}x{d} data")
    mean = X.mean(axis=0)
    _, s, vt = np.linalg.svd(X - mean, full_matrices=False)
    components = vt[:k].copy()
    lead = np.argmax(np.abs(components), axis=1)
    flip = components[np.arange(k), lead] < 0
    components[flip] *= -1.0
    explained = s[:k] ** 2 / (n - 1)
    return PcaModel(mean=mean, components=components, explained_variance=explained)


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    X = _as_matrix(X)
    if X.shape[1] != model.d:
        raise ValueError(f"X has {X.shape[1]} columns, model expects {model.d}")
    return (X - model.mean) @ model.components.T


@dataclass
class ProjectionMatrix:
    FORMAT = "hwr-rp/1"

    kind: str                 # "gaussian" | "sparse"
    seed: int
    matrix: np.ndarray | sparse.csr_array  # (k, d)
    generator: str = field(default=rng.GENERATOR_NAME)

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        return project(self, X)

    def dense(self) -> np.ndarray:
        if self.kind == "sparse":
            return self.matrix.toarray()
        return np.asarray(self.matrix)

    def save(self, path: str | os.PathLike) -> None:
        doc = {
            "format": self.FORMAT,
            "kind": self.kind,
            "generator": self.generator,
            "seed": self.seed,
            "d": self.d,
            "k": self.k,
        }
        if self.kind == "sparse":
            coo = self.matrix.tocoo()
            doc["rows"] = coo.row.tolist()
            doc["cols"] = coo.col.tolist()
            doc["values"] = coo.data.tolist()
        else:
            doc["values"] = np.asarray(self.matrix).ravel().tolist()
        dataset.write_model(path, doc)

    @classmethod
    def from_doc(cls, doc: dict) -> "ProjectionMatrix":
        kind, d, k = doc["kind"], int(doc["d"]), int(doc["k"])
        if kind == "sparse":
            matrix = sparse.coo_array(
                (np.array(doc["values"], dtype=np.float64),
                 (np.array(doc["rows"]), np.array(doc["cols"]))),
                shape=(k, d),
            ).tocsr()
        else:
            matrix = np.array(doc["values"], dtype=np.float64).reshape(k, d)
        return cls(kind=kind, seed=int(doc["seed"]), matrix=matrix,
                   generator=doc.get("generator", rng.GENERATOR_NAME))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ProjectionMatrix":
        return dataset.read_model(path, cls)


def rp_fit(kind: str, d: int, k: int, seed: int) -> ProjectionMatrix:
    """Draw a k x d random projection, deterministic in (kind, d, k, seed)."""
    if kind not in ("gaussian", "sparse"):
        raise ValueError(f"kind must be 'gaussian' or 'sparse', got {kind!r}")
    if d < 1 or k < 1:
        raise ValueError(f"dimensions must be >= 1, got d={d}, k={k}")
    count = d * k
    if kind == "gaussian":
        u = rng.uniforms(seed, 2 * count)
        z = np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
        matrix = (z / math.sqrt(k)).reshape(k, d)
    else:
        u = rng.uniforms(seed, count)
        scale = math.sqrt(3.0 / k)
        nz = np.nonzero(u < 1.0 / 3.0)[0]
        data = np.where(u[nz] < 1.0 / 6.0, scale, -scale)
        matrix = sparse.coo_array(
            (data, (nz // d, nz % d)), shape=(k, d)
        ).tocsr()
    return ProjectionMatrix(kind=kind, seed=seed, matrix=matrix)


def project(P: ProjectionMatrix, X: np.ndarray) -> np.ndarray:
    X = _as_matrix(X)
    if X.shape[1] != P.d:
        raise ValueError(f"X has {X.shape[1]} columns, projection expects {P.d}")
    if P.kind == "sparse":
        return np.asarray((P.matrix @ X.T).T)
    return X @ np.asarray(P.matrix).T


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
