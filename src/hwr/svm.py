"""RBF-kernel SVM trained by sequential minimal optimization.

RBF is the only kernel, K(x, z) = exp(-gamma * ||x - z||^2); model files
(hwr-svm/3) record it as "kernel": "rbf" and any other value is refused at
load.  Binary machines solve the standard dual

    max  sum(a) - 0.5 * sum_ij a_i a_j y_i y_j K(x_i, x_j)
    s.t. 0 <= a_i <= C,  sum_i a_i y_i = 0

by repeatedly optimizing the maximal violating pair of multipliers
analytically (two-variable subproblems) until the violating-pair gap drops
to tol, which bounds every KKT residual by tol under the final bias (the
average margin-exact bias over unbounded support vectors).  Pair steps are
budgeted at 10*n passes of n steps each; exceeding the budget raises
ConvergenceError with diagnostics.

Machines are solved in lockstep batches: the solver holds every machine of
a batch as one row of padded (machines, n) arrays and performs, per
iteration, one vectorized pair selection and one vectorized pair update for
all machines not yet converged.  The Python iteration count is thus the
largest step count in the batch, not the sum.  The schedule is exact: each
machine's arithmetic is elementwise the same sequence of float64 operations
as solving it alone, and its bias is reduced over its own samples, so every
multiplier, bias, support vector and step count is bit-identical whatever
the batch.  A machine that fails (step budget, stall, zero margin) fails
alone.

Multiclass is one-vs-one (91 machines for 14 classes, one batch) with
majority voting; vote ties break by summed |decision| and then the lowest
class id.  The machines share most of their support vectors, so a model is
LIBSVM's layout (Chang & Lin, 2011): one matrix of distinct support vectors
and one coefficient row per machine.  A prediction is one kernel block and
one matrix product for all machines.  Training writes that layout from the
solver's outcomes: a support vector's coefficient goes to the column of its
training row's bytes.  A pair's Gram matrix comes from one array object, as
numpy computes A @ A.T of one buffer by a symmetric BLAS routine whose bits
differ from a general product's (and would change the SMO step counts).
Grid search runs FOLDS-fold cross-validation over every (C, gamma) of
DEFAULT_C_VALUES x DEFAULT_GAMMA_VALUES on `dataset.stratified_folds`: each
class's rows, shuffled as `dataset.split` shuffles them, dealt over the
folds.  It solves every pair at every C of one (fold, gamma) as one batch
that shares each pair's Gram matrix, and prefers smaller C, then smaller
gamma, on ties.  Its (fold, gamma) batches are trained and scored in worker
processes.
One-vs-one training and grid search run SMO to tol _TOL (1e-3).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import dataset, workers
from .labels import class_ids

# Grid from the practical-guide convention: coarse powers of two.
DEFAULT_C_VALUES = (2.0**-1, 2.0**1, 2.0**3, 2.0**5, 2.0**7)
DEFAULT_GAMMA_VALUES = (2.0**-9, 2.0**-7, 2.0**-5, 2.0**-3, 2.0**-1)
FOLDS = 3              # cross-validation folds of grid_search

_TOL = 1e-3            # KKT violating-pair gap at which SMO stops

_STEP_EPS = 1e-8       # curvature/objective margin below which a direction is flat
_SV_EPS = 1e-12        # alpha > this counts as a support vector


class TrainingError(RuntimeError):
    """Base class for SVM training failures."""


class ConvergenceError(TrainingError):
    """SMO exceeded its pass cap without satisfying the KKT conditions."""


class DegenerateDataError(TrainingError):
    """Training data admits no separating information (zero margin)."""


def kernel_matrix(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """RBF Gram matrix K[i, j] = exp(-gamma * ||A[i] - B[j]||^2)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    return _rbf(A, (A * A).sum(axis=1), B, gamma)


def _check_positive(name: str, value: float) -> None:
    """Refuse a C or gamma that is not finite and > 0, as model files do."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be {'finite' if value > 0 else '> 0'}, got {value}")


def _rbf(A: np.ndarray, a_sq: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """kernel_matrix(A, B, gamma) for a 2-D float64 A whose squared row norms are a_sq."""
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"feature dims differ: {A.shape[1]} vs {B.shape[1]}")
    _check_positive("gamma", gamma)
    sq = a_sq[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass
class BinarySvm:
    support_vectors: np.ndarray  # (s, m)
    dual_coef: np.ndarray        # (s,), alpha_i * y_i
    bias: float
    c: float
    gamma: float
    passes: int = 0              # SMO pair-step count, diagnostic only


def _py_max(a, b):
    """Elementwise ``max(a, b)`` with Python's semantics: ``a`` unless ``b > a``."""
    return np.where(b > a, b, a)


def _py_min(a, b):
    """Elementwise ``min(a, b)`` with Python's semantics: ``a`` unless ``b < a``."""
    return np.where(b < a, b, a)


def _step_budget(n: np.ndarray) -> np.ndarray:
    """Pair steps allowed per machine: 10*n passes of n steps."""
    return 10 * n * n


class _Smo:
    """Lockstep SMO over a batch of binary machines.

    There is one machine per (C, problem): machine k*P + p solves the dual
    for problem p of P (a Gram matrix and its labels) under box bound
    costs[k], so the machines of one problem share its Gram matrix.  The
    step budget of a machine of n samples is ``_step_budget(n)``.
    State is kept as padded (machines, n) arrays: sample positions past a
    problem's size have zero kernel entries and are masked out of the
    working sets.  Every iteration selects and updates one pair in each
    active machine; a machine leaves the batch when it converges or fails.

    Pair selection is the maximal-violating-pair rule: with lambda_i =
    y_i - raw_i (the bias that would put point i exactly on its margin),
    KKT holds within tol iff max(lambda over I_up) - min(lambda over I_low)
    <= tol, where I_up/I_low are the index sets whose multipliers can still
    move the functional margin up/down.  Selecting the argmax/argmin pair
    keeps every step bias-free and guarantees progress, which avoids the
    bias see-saw a single running threshold is prone to.

    Each machine's arithmetic is elementwise the sequence a solver for that
    machine alone would perform, so results do not depend on the batch.
    (The additive working-set masks assume finite kernel values.)
    """

    def __init__(self, grams: list[np.ndarray], labels: list[np.ndarray],
                 costs: list[float], tol: float):
        for c in costs:
            _check_positive("C", c)
        sizes = np.array([len(y) for y in labels])
        width = int(sizes.max())
        self.K = np.zeros((len(grams), width, width))
        ys = np.zeros((len(grams), width))
        for p, (K, y) in enumerate(zip(grams, labels)):
            self.K[p, :len(y), :len(y)] = K
            ys[p, :len(y)] = y
        problem = np.tile(np.arange(len(grams)), len(costs))
        self.tol = float(tol)
        self.outcomes: list = [None] * len(problem)
        # state of the active machines, one row each; ids index outcomes
        self.ids = np.arange(len(problem))
        self.problem = problem
        self.sizes = sizes[problem]
        self.budget = _step_budget(self.sizes)
        self.y = ys[problem]
        self.C = np.repeat(np.asarray(costs, dtype=np.float64), len(grams))
        self.snap = 1e-12 * _py_max(1.0, self.C)
        self.alphas = np.zeros(self.y.shape)
        self.raw = np.zeros(self.y.shape)  # sum_j alpha_j y_j K[i, j], no bias
        # I_up and I_low as additive masks (0 inside, -inf/+inf outside) at
        # alphas = 0; padding (y = 0) is in neither
        self.up = np.where(self.y > 0, 0.0, -np.inf)
        self.low = np.where(self.y < 0, 0.0, np.inf)
        self.iterations = np.zeros(len(problem), dtype=np.int64)

    def _select(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Maximal violating pair of every active machine and its gap.

        A machine with an empty I_up or I_low gets gap -inf.
        """
        lam = self.y - self.raw
        lam_up = lam + self.up
        lam_low = lam + self.low
        i = np.argmax(lam_up, axis=1)
        j = np.argmin(lam_low, axis=1)
        rows = np.arange(len(i))
        return i, j, lam_up[rows, i] - lam_low[rows, j]

    def _step(self, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
        """Jointly optimize pair (i1[m], i2[m]) of every active machine m.

        Returns where a machine moved; a machine that did not is left in an
        unspecified state.
        """
        rows = np.arange(len(i1))
        C = self.C
        a1o, a2o = self.alphas[rows, i1], self.alphas[rows, i2]
        y1, y2 = self.y[rows, i1], self.y[rows, i2]
        s = y1 * y2
        L = np.where(s > 0, _py_max(0.0, a1o + a2o - C), _py_max(0.0, a2o - a1o))
        H = np.where(s > 0, _py_min(C, a1o + a2o), _py_min(C, C + a2o - a1o))
        moved = ~(H <= L)
        K1 = self.K[self.problem, i1]
        K2 = self.K[self.problem, i2]
        k11, k22, k12 = K1[rows, i1], K2[rows, i2], K1[rows, i2]
        eta = k11 + k22 - 2.0 * k12
        g1 = self.raw[rows, i1] - y1
        g2 = self.raw[rows, i2] - y2
        curved = eta > _STEP_EPS
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a2 = a2o + y2 * (g1 - g2) / eta
            a2 = _py_min(_py_max(a2, L), H)
            if not curved.all():
                # flat or concave direction: pick the better segment endpoint
                f1 = y1 * g1 - a1o * k11 - s * a2o * k12
                f2 = y2 * g2 - s * a1o * k12 - a2o * k22
                L1 = a1o + s * (a2o - L)
                H1 = a1o + s * (a2o - H)
                psi_l = (L1 * f1 + L * f2 + 0.5 * L1 * L1 * k11 + 0.5 * L * L * k22
                         + s * L * L1 * k12)
                psi_h = (H1 * f1 + H * f2 + 0.5 * H1 * H1 * k11 + 0.5 * H * H * k22
                         + s * H * H1 * k12)
                to_l = psi_l < psi_h - _STEP_EPS
                to_h = psi_h < psi_l - _STEP_EPS
                a2 = np.where(curved, a2, np.where(to_l, L, H))
                moved &= curved | to_l | to_h
            moved &= ~(a2 - a2o == 0.0)
            a1 = a1o + s * (a2o - a2)
            # snap to the box so bound states stay exact
            lo = a1 < self.snap
            hi = ~lo & (a1 > C - self.snap)
            a2 = np.where(lo, a2 + s * a1, np.where(hi, a2 + s * (a1 - C), a2))
            a1 = np.where(lo, 0.0, np.where(hi, C, a1))
            a2 = np.where(a2 < self.snap, 0.0, np.where(a2 > C - self.snap, C, a2))
            d1 = y1 * (a1 - a1o)
            d2 = y2 * (a2 - a2o)
            moved &= ~((d1 == 0.0) & (d2 == 0.0))
            # raw += d1 * K[i1] + d2 * K[i2], reusing the gathered rows
            K1 *= d1[:, None]
            K2 *= d2[:, None]
            K1 += K2
            self.raw += K1
        for i, a, y in ((i1, a1, y1), (i2, a2, y2)):
            self.alphas[rows, i] = a
            movable_up, movable_dn = a < C, a > 0.0
            self.up[rows, i] = np.where(np.where(y > 0, movable_up, movable_dn), 0.0, -np.inf)
            self.low[rows, i] = np.where(np.where(y > 0, movable_dn, movable_up), 0.0, np.inf)
        return moved

    def _keep(self, keep: np.ndarray) -> None:
        """Drop the machines that left the batch from the active state."""
        for name in ("ids", "problem", "sizes", "budget", "y", "C", "snap", "alphas", "raw",
                     "up", "low", "iterations"):
            setattr(self, name, getattr(self, name)[keep])

    def _finish(self, r: int, i: int, j: int, gap: float) -> None:
        """Record the solution of converged row r, with its bias.

        The bias averages the margin-exact bias over unbounded support
        vectors, falling back to the midpoint of the feasible interval.
        """
        n, C = self.sizes[r], self.C[r]
        alphas, raw = self.alphas[r, :n].copy(), self.raw[r, :n].copy()
        lam = self.y[r, :n] - raw
        free = (alphas > 0.0) & (alphas < C)
        if free.any():
            b = float(lam[free].mean())
        elif gap == -np.inf:
            b = 0.0
        else:
            b = 0.5 * float(lam[i] + lam[j])
        self.outcomes[self.ids[r]] = (alphas, raw, b, int(self.iterations[r]))

    def _fail(self, r: int, what: str, gap: float, why: str = "") -> None:
        self.outcomes[self.ids[r]] = ConvergenceError(
            f"SMO {what} (n={self.sizes[r]}, C={float(self.C[r])}): "
            f"KKT gap {gap:.3e} > tol {self.tol:.0e}{why}"
        )

    def solve(self) -> list:
        """Per machine, (alphas, raw, bias, pair steps) or its ConvergenceError."""
        while len(self.ids):
            i, j, gap = self._select()
            done = gap <= self.tol
            self.iterations += ~done
            over = self.iterations > self.budget
            leave = done | over
            if leave.any():
                for r in np.flatnonzero(done):
                    self._finish(r, i[r], j[r], gap[r])
                for r in np.flatnonzero(over):
                    self._fail(r, f"did not converge within {self.budget[r]} pair steps", gap[r])
                keep = ~leave
                self._keep(keep)
                i, j, gap = i[keep], j[keep], gap[keep]
            moved = self._step(i, j)
            if not moved.all():
                for r in np.flatnonzero(~moved):
                    self._fail(r, f"stalled after {self.iterations[r]} pair steps", gap[r],
                               f" but pair ({i[r]}, {j[r]}) admits no progress")
                self._keep(moved)
        return self.outcomes


def _failure(outcome) -> TrainingError | None:
    """The error of a machine's solver outcome, or None if the machine is usable."""
    if isinstance(outcome, TrainingError):
        return outcome
    _, raw, bias, _ = outcome
    decision = raw + bias
    if float(decision.max() - decision.min()) < 1e-9:
        return DegenerateDataError(
            "decision function is constant over the training data (zero margin); "
            "inputs carry no separating information"
        )
    return None


def smo_train(
    X: np.ndarray,
    y: np.ndarray,
    c: float,
    gamma: float = 1.0,
    tol: float = _TOL,
) -> BinarySvm:
    """Train one binary machine on labels in {-1, +1}.

    It may take 10*n^2 pair steps before raising ConvergenceError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError(f"labels have shape {y.shape}, expected ({X.shape[0]},)")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if X.shape[0] < 2 or len(np.unique(y)) < 2:
        raise TrainingError("training needs at least 2 samples covering both classes")
    [outcome] = _Smo([kernel_matrix(X, X, gamma)], [y], [c], tol).solve()
    error = _failure(outcome)
    if error is not None:
        raise error
    alphas, _, bias, passes = outcome
    sv = alphas > _SV_EPS
    return BinarySvm(support_vectors=X[sv], dual_coef=(alphas * y)[sv], bias=bias, c=float(c),
                     gamma=float(gamma), passes=passes)


def dual_objective(machine_alphas: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    """Value of the SVM dual at the given multipliers."""
    a = np.asarray(machine_alphas, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(a.sum() - 0.5 * (a * y) @ K @ (a * y))


@dataclass
class SvmModel:
    """One-vs-one machines over one matrix of distinct support vectors.

    Row k of ``coef`` holds the dual coefficients of machine ``pairs[k]`` in
    the columns of its support vectors, 0 elsewhere, and ``bias[k]`` its
    bias.  ``passes[k]`` is that machine's SMO pair-step count, a diagnostic
    that is not saved: it is 0 on a loaded model.
    """

    FORMAT = "hwr-svm/3"

    classes: list[int]
    pairs: list[tuple[int, int]]
    sv: np.ndarray      # (u, d)
    coef: np.ndarray    # (len(pairs), u)
    bias: np.ndarray    # (len(pairs),)
    c: float
    gamma: float
    passes: np.ndarray  # (len(pairs),)
    sides: np.ndarray = field(init=False)  # (2, len(pairs)): class indices of a, of b
    sv_sq: np.ndarray = field(init=False)  # (u,): squared norms of the rows of sv

    def __post_init__(self) -> None:
        index = {c: i for i, c in enumerate(self.classes)}
        self.sides = np.array([[index[a] for a, _ in self.pairs],
                               [index[b] for _, b in self.pairs]], dtype=np.intp)
        self.sv_sq = (self.sv * self.sv).sum(axis=1)

    @property
    def d(self) -> int:
        return self.sv.shape[1]

    @property
    def machines(self) -> dict[tuple[int, int], BinarySvm]:
        """Each pair's machine over the rows of its nonzero coefficients, built on each access.

        A trained machine has no zero coefficient: each support vector has
        alpha > _SV_EPS.
        """
        machines = {}
        for k, pair in enumerate(self.pairs):
            used = np.flatnonzero(self.coef[k])
            machines[pair] = BinarySvm(support_vectors=self.sv[used], dual_coef=self.coef[k, used],
                                       bias=float(self.bias[k]), c=self.c, gamma=self.gamma,
                                       passes=int(self.passes[k]))
        return machines

    def decisions(self, X: np.ndarray) -> np.ndarray:
        """Decision values of every machine (rows, in ``pairs`` order) on every sample."""
        return self.coef @ _rbf(self.sv, self.sv_sq, X, self.gamma) + self.bias[:, None]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        F = self.decisions(X)
        winner = np.where(F > 0.0, self.sides[0, :, None], self.sides[1, :, None])
        n, k = F.shape[1], len(self.classes)
        # bins of (sample, winning class), summed in machine order
        bins = (np.arange(n) * k + winner).ravel()
        votes = np.bincount(bins, minlength=n * k).reshape(n, k)
        magnitude = np.bincount(bins, np.abs(F).ravel(), minlength=n * k).reshape(n, k)
        # ranking: votes, then summed |decision|, then lowest class id
        classes = np.asarray(self.classes, dtype=np.intp)
        keys = (np.broadcast_to(classes, votes.shape), -magnitude, -votes)
        return classes[np.lexsort(keys, axis=1)[:, 0]]

    def save(self, path: str | os.PathLike) -> None:
        dataset.write_model(path, {
            "format": self.FORMAT,
            "classes": list(self.classes),
            "c": self.c,
            "gamma": self.gamma,
            "kernel": "rbf",
            "pairs": [[a, b] for a, b in self.pairs],
            "n_support": int(self.sv.shape[0]),
            "dim": self.d,
            "support_vectors": dataset.pack(self.sv),
            "coef": dataset.pack(self.coef),
            "bias": dataset.pack(self.bias),
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "SvmModel":
        if doc["kernel"] != "rbf":
            raise ValueError(f"kernel {doc['kernel']!r} is not supported (only 'rbf')")
        classes = class_ids([dataset.number(c) for c in doc["classes"]],
                            len(doc["classes"])).tolist()
        if len(classes) < 2 or len(set(classes)) != len(classes):
            raise ValueError(f"classes {classes} are not 2 or more distinct ids")
        c, gamma = dataset.number(doc["c"], float), dataset.number(doc["gamma"], float)
        pairs = [(dataset.number(a), dataset.number(b)) for a, b in doc["pairs"]]
        for a, b in pairs:
            if not (a in classes and b in classes and a < b):
                raise ValueError(f"pair {[a, b]} is not two classes a < b of {classes}")
        if len(set(pairs)) != len(pairs):
            raise ValueError("a pair is listed twice")
        missing = set(itertools.combinations(sorted(classes), 2)) - set(pairs)
        if missing:
            raise ValueError(f"pair {list(min(missing))} of classes {classes} is missing")
        n, dim = dataset.number(doc["n_support"]), dataset.size(doc, "dim")
        return cls(classes, pairs, dataset.unpack(doc["support_vectors"], n, dim),
                   dataset.unpack(doc["coef"], len(pairs), n),
                   dataset.unpack(doc["bias"], len(pairs)), c, gamma,
                   np.zeros(len(pairs), dtype=np.int64))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "SvmModel":
        return dataset.read_model(path, cls)


def _ovo_problems(
    X: np.ndarray, labels: np.ndarray
) -> tuple[list[int], list[tuple[int, int]], list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Sorted classes, their pairs (a, b), a < b, each pair's rows of X and labels y, and
    the id of each row of X among its distinct rows of bytes."""
    labels = class_ids(labels, X.shape[0])
    present, counts = np.unique(labels, return_counts=True)
    if (counts < 2).any():
        thin = present[counts < 2].tolist()
        raise ValueError(f"classes {thin} have fewer than 2 samples")
    classes = [int(v) for v in present]
    if len(classes) < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    pairs = list(itertools.combinations(classes, 2))
    rows_of = [np.flatnonzero((labels == a) | (labels == b)) for a, b in pairs]
    ys = [np.where(labels[rows] == a, 1.0, -1.0) for rows, (a, _) in zip(rows_of, pairs)]
    # bytes, not values, so -0.0 and 0.0 stay apart
    row_bytes = np.ascontiguousarray(X).view(np.dtype((np.void, 8 * X.shape[1])))[:, 0]
    return classes, pairs, rows_of, ys, np.unique(row_bytes, return_inverse=True)[1]


def _ovo_models(X: np.ndarray, labels: np.ndarray, costs: list[float],
                gamma: float) -> list[SvmModel | TrainingError]:
    """The one-vs-one model at each of ``costs``, or the error of its first failing pair.

    Every pair at every C is one machine of one lockstep batch.  Rows with
    equal bytes share one column, numbered by first use over the sorted
    pairs; a column a machine holds twice gets the sum of its coefficients.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    classes, pairs, rows_of, ys, byte_id = _ovo_problems(X, labels)
    # each Gram matrix from one array object (see the module docstring)
    grams = [kernel_matrix(Xp, Xp, gamma) for Xp in (X[rows] for rows in rows_of)]
    outcomes = _Smo(grams, ys, costs, _TOL).solve()
    models: list[SvmModel | TrainingError] = []
    for k, c in enumerate(costs):
        batch = outcomes[k * len(ys):(k + 1) * len(ys)]
        errors = [error for error in map(_failure, batch) if error is not None]
        if errors:
            models.append(errors[0])
            continue
        alphas, _, bias, passes = zip(*batch)
        sv = [a > _SV_EPS for a in alphas]
        used = np.concatenate([rows[s] for rows, s in zip(rows_of, sv)])
        _, first, column = np.unique(byte_id[used], return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(first))  # column ids renumbered by first use
        owner = np.repeat(np.arange(len(ys)), [int(s.sum()) for s in sv])
        coef = np.zeros((len(ys), len(first)))
        np.add.at(coef, (owner, rank[column]),
                  np.concatenate([(a * y)[s] for a, y, s in zip(alphas, ys, sv)]))
        models.append(SvmModel(classes, pairs, X[used[np.sort(first)]], coef,
                               np.array(bias, dtype=np.float64), float(c), float(gamma),
                               np.array(passes, dtype=np.int64)))
    return models


def ovo_train(X: np.ndarray, labels: np.ndarray, c: float, gamma: float) -> SvmModel:
    """One binary machine per unordered class pair, all solved in one batch.

    Within pair (a, b), a < b, class a maps to +1, so decision > 0 votes a.
    The first pair (in sorted order) whose machine fails raises its error.
    """
    [model] = _ovo_models(X, labels, [c], gamma)
    if isinstance(model, TrainingError):
        raise model
    return model


@dataclass
class GridSearchResult:
    c: float
    gamma: float
    accuracy: float
    table: list[tuple[float, float, float]] = field(default_factory=list)


def grid_search(X: np.ndarray, labels: np.ndarray, seed: int = 0) -> GridSearchResult:
    """Cross-validated accuracy for every (C, gamma) cell; returns the argmax.

    The cells are DEFAULT_C_VALUES x DEFAULT_GAMMA_VALUES, scored over
    FOLDS (3) folds stratified per class.  Accuracy is pooled over folds (total
    correct / total samples).  Cells whose machines fail to train in any
    fold (degenerate folds) score 0 rather than aborting the sweep.  Each
    (fold, gamma) is one job of ``workers.map_jobs``, which trains the
    models of every C as one lockstep batch and scores the held-out rows.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = class_ids(labels, X.shape[0])
    n = labels.shape[0]
    c_values, gamma_values = sorted(DEFAULT_C_VALUES), sorted(DEFAULT_GAMMA_VALUES)

    def hits(job) -> list[int | None]:
        """Correct held-out predictions at each C, None where training failed."""
        held, gamma = job
        train = np.setdiff1d(np.arange(n), held)
        return [None if isinstance(model, TrainingError)
                else int((model.predict_batch(X[held]) == labels[held]).sum())
                for model in _ovo_models(X[train], labels[train], c_values, gamma)]

    folds = dataset.stratified_folds(labels, FOLDS, seed)
    # one list per (fold, gamma), gamma fastest
    scores = workers.map_jobs(hits, [(held, gamma) for held in folds for gamma in gamma_values])
    best: tuple[float, float, float] | None = None
    table: list[tuple[float, float, float]] = []
    for k, c in enumerate(c_values):
        for g, gamma in enumerate(gamma_values):
            per_fold = [fold[k] for fold in scores[g::len(gamma_values)]]
            accuracy = 0.0 if None in per_fold else sum(per_fold) / n
            table.append((c, gamma, accuracy))
            if best is None or accuracy > best[2]:
                best = (c, gamma, accuracy)
    return GridSearchResult(c=best[0], gamma=best[1], accuracy=best[2], table=table)
