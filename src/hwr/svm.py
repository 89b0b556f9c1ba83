"""RBF-kernel SVM trained by sequential minimal optimization.

RBF is the only kernel, K(x, z) = exp(-gamma * ||x - z||^2); model files
(hwr-svm/1) record it as "kernel": "rbf" and any other value is refused at
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
class id.  Grid search runs stratified k-fold cross-validation over
(C, gamma), solving every pair at every C of one (fold, gamma) as one batch
that shares each pair's Gram matrix, and prefers smaller C, then smaller
gamma, on ties.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from . import dataset

# Grid from the practical-guide convention: coarse powers of two.
DEFAULT_C_VALUES = (2.0**-1, 2.0**1, 2.0**3, 2.0**5, 2.0**7)
DEFAULT_GAMMA_VALUES = (2.0**-9, 2.0**-7, 2.0**-5, 2.0**-3, 2.0**-1)

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
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"feature dims differ: {A.shape[1]} vs {B.shape[1]}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass
class BinarySvm:
    support_vectors: np.ndarray  # (s, m)
    dual_coef: np.ndarray        # (s,), alpha_i * y_i
    bias: float
    c: float
    gamma: float
    passes: int = 0              # SMO pair-step count, diagnostic only

    def decision(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        K = kernel_matrix(self.support_vectors, X, self.gamma)
        return self.dual_coef @ K + self.bias


def _py_max(a, b):
    """Elementwise ``max(a, b)`` with Python's semantics: ``a`` unless ``b > a``."""
    return np.where(b > a, b, a)


def _py_min(a, b):
    """Elementwise ``min(a, b)`` with Python's semantics: ``a`` unless ``b < a``."""
    return np.where(b < a, b, a)


def _step_budget(n: np.ndarray, max_passes: int | None) -> np.ndarray:
    """Pair steps allowed per machine: max_passes (default 10*n) passes of n steps."""
    return (max_passes if max_passes is not None else 10 * n) * n


class _Smo:
    """Lockstep SMO over a batch of binary machines.

    There is one machine per (C, problem): machine k*P + p solves the dual
    for problem p of P (a Gram matrix and its labels) under box bound
    costs[k], so the machines of one problem share its Gram matrix.  The
    step budget of a machine of n samples is ``_step_budget(n, max_passes)``.
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
                 costs: list[float], tol: float, max_passes: int | None = None):
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
        self.budget = _step_budget(self.sizes, max_passes)
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


def _train(
    problems: list[tuple[np.ndarray, np.ndarray]],
    costs: list[float],
    gamma: float,
    tol: float,
    max_passes: int | None = None,
) -> list[list[BinarySvm | TrainingError]]:
    """Train a machine for every (C, problem) in one lockstep batch.

    ``problems`` are (X, y) pairs with y in {-1, +1}.  Entry [k][p] of the
    result is the machine for costs[k] on problems[p], or the TrainingError
    that machine raised; a failure leaves the other machines untouched.
    Each problem's Gram matrix is computed once and shared by every C.
    """
    for c in costs:
        if c <= 0:
            raise ValueError(f"C must be > 0, got {c}")
    solver = _Smo([kernel_matrix(X, X, gamma) for X, _ in problems],
                  [y for _, y in problems], costs, tol, max_passes)
    outcomes = iter(solver.solve())
    return [[_machine(X, y, next(outcomes), c, gamma) for X, y in problems] for c in costs]


def _machine(X, y, outcome, c, gamma) -> BinarySvm | TrainingError:
    if isinstance(outcome, TrainingError):
        return outcome
    alphas, raw, bias, passes = outcome
    decision = raw + bias
    if float(decision.max() - decision.min()) < 1e-9:
        return DegenerateDataError(
            "decision function is constant over the training data (zero margin); "
            "inputs carry no separating information"
        )
    sv = alphas > _SV_EPS
    return BinarySvm(
        support_vectors=X[sv].copy(),
        dual_coef=(alphas * y)[sv],
        bias=bias,
        c=float(c),
        gamma=float(gamma),
        passes=passes,
    )


def smo_train(
    X: np.ndarray,
    y: np.ndarray,
    c: float,
    gamma: float = 1.0,
    tol: float = 1e-3,
    max_passes: int | None = None,
) -> BinarySvm:
    """Train one binary machine on labels in {-1, +1}.

    One "pass" budgets n pair steps; the default cap of 10*n passes therefore
    allows 10*n^2 pair optimizations before ConvergenceError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError(f"labels have shape {y.shape}, expected ({X.shape[0]},)")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if X.shape[0] < 2 or len(np.unique(y)) < 2:
        raise TrainingError("training needs at least 2 samples covering both classes")
    [[machine]] = _train([(X, y)], [c], gamma, tol, max_passes)
    if isinstance(machine, TrainingError):
        raise machine
    return machine


def dual_objective(machine_alphas: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    """Value of the SVM dual at the given multipliers."""
    a = np.asarray(machine_alphas, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(a.sum() - 0.5 * (a * y) @ K @ (a * y))


@dataclass
class SvmModel:
    FORMAT = "hwr-svm/1"

    classes: list[int]
    machines: dict[tuple[int, int], BinarySvm]
    c: float
    gamma: float

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        votes = np.zeros((X.shape[0], len(self.classes)))
        magnitude = np.zeros_like(votes)
        index = {cls: i for i, cls in enumerate(self.classes)}
        for (a, b), machine in self.machines.items():
            f = machine.decision(X)
            wins_a = f > 0.0
            ia, ib = index[a], index[b]
            votes[wins_a, ia] += 1
            votes[~wins_a, ib] += 1
            magnitude[wins_a, ia] += np.abs(f[wins_a])
            magnitude[~wins_a, ib] += np.abs(f[~wins_a])
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
            "machines": [
                {
                    "pair": [a, b],
                    "support_vectors": m.support_vectors.ravel().tolist(),
                    "n_support": int(m.support_vectors.shape[0]),
                    "dim": int(m.support_vectors.shape[1]),
                    "dual_coef": m.dual_coef.tolist(),
                    "bias": m.bias,
                }
                for (a, b), m in sorted(self.machines.items())
            ],
        })

    @classmethod
    def from_doc(cls, doc: dict) -> "SvmModel":
        if doc["kernel"] != "rbf":
            raise ValueError(f"kernel {doc['kernel']!r} is not supported (only 'rbf')")
        machines = {}
        for rec in doc["machines"]:
            a, b = rec["pair"]
            n = rec["n_support"]
            machines[(a, b)] = BinarySvm(
                support_vectors=np.array(rec["support_vectors"], dtype=np.float64).reshape(
                    n, rec["dim"]
                ),
                dual_coef=np.array(rec["dual_coef"], dtype=np.float64).reshape(n),
                bias=float(rec["bias"]),
                c=float(doc["c"]),
                gamma=float(doc["gamma"]),
            )
        return cls(
            classes=[int(c) for c in doc["classes"]],
            machines=machines,
            c=float(doc["c"]),
            gamma=float(doc["gamma"]),
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "SvmModel":
        return dataset.read_model(path, cls)


def _ovo_problems(
    X: np.ndarray, labels: np.ndarray, classes: list[int] | None = None
) -> tuple[list[int], dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]]:
    """Sorted classes and the binary problem (X, y) of every class pair.

    Within pair (a, b), a < b, class a maps to +1, so decision > 0 votes a.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape[0] != X.shape[0]:
        raise ValueError(f"{labels.shape[0]} labels for {X.shape[0]} samples")
    present, counts = np.unique(labels, return_counts=True)
    if classes is None:
        classes = [int(v) for v in present]
        if (counts < 2).any():
            thin = present[counts < 2].tolist()
            raise ValueError(f"classes {thin} have fewer than 2 samples")
    if len(classes) < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    problems = {}
    for a, b in itertools.combinations(sorted(classes), 2):
        mask = (labels == a) | (labels == b)
        for cls in (a, b):
            if not np.any(labels == cls):
                raise TrainingError(f"pair ({a}, {b}): class {cls} has no samples")
        problems[(a, b)] = (X[mask], np.where(labels[mask] == a, 1.0, -1.0))
    return sorted(classes), problems


def ovo_train(
    X: np.ndarray,
    labels: np.ndarray,
    c: float,
    gamma: float,
    tol: float = 1e-3,
    classes: list[int] | None = None,
) -> SvmModel:
    """One binary machine per unordered class pair, all solved in one batch.

    Within pair (a, b), a < b, class a maps to +1, so decision > 0 votes a.
    The first pair (in sorted order) whose machine fails raises its error.
    """
    classes, problems = _ovo_problems(X, labels, classes)
    [machines] = _train(list(problems.values()), [c], gamma, tol)
    for machine in machines:
        if isinstance(machine, TrainingError):
            raise machine
    return SvmModel(classes=classes, machines=dict(zip(problems, machines)), c=float(c),
                    gamma=float(gamma))


@dataclass
class GridSpec:
    c_values: tuple[float, ...] = DEFAULT_C_VALUES
    gamma_values: tuple[float, ...] = DEFAULT_GAMMA_VALUES
    folds: int = 3

    def __post_init__(self) -> None:
        if not self.c_values or not self.gamma_values:
            raise ValueError("candidate lists must be nonempty")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")


DEFAULT_GRID = GridSpec()


@dataclass
class GridSearchResult:
    c: float
    gamma: float
    accuracy: float
    table: list[tuple[float, float, float]] = field(default_factory=list)


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified k-fold assignment (shuffle within class)."""
    labels = np.asarray(labels, dtype=np.intp)
    if k < 2:
        raise ValueError(f"folds must be >= 2, got {k}")
    present, counts = np.unique(labels, return_counts=True)
    if counts.min() < k:
        thin = present[counts < k].tolist()
        raise ValueError(
            f"stratification infeasible: classes {thin} have fewer than {k} samples"
        )
    gen = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in present:
        idx = np.nonzero(labels == cls)[0]
        gen.shuffle(idx)
        for j, i in enumerate(idx):
            folds[j % k].append(int(i))
    return [np.sort(np.array(f, dtype=np.intp)) for f in folds]


def grid_search(
    X: np.ndarray,
    labels: np.ndarray,
    spec: GridSpec = DEFAULT_GRID,
    seed: int = 0,
    tol: float = 1e-3,
) -> GridSearchResult:
    """Cross-validated accuracy for every (C, gamma) cell; returns the argmax.

    Accuracy is pooled over folds (total correct / total samples).  Cells
    whose machines fail to train (degenerate folds) score 0 rather than
    aborting the sweep.  The machines of one (fold, gamma), every pair at
    every C still in the running, are solved as one lockstep batch.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    folds = stratified_folds(labels, spec.folds, seed)
    n = labels.shape[0]
    all_idx = np.arange(n)
    c_values, gamma_values = sorted(spec.c_values), sorted(spec.gamma_values)
    # correct predictions per cell, None once one of its machines failed
    correct: dict[tuple[float, float], int | None] = {
        (c, gamma): 0 for c in c_values for gamma in gamma_values}
    for held in folds:
        train_idx = np.setdiff1d(all_idx, held)
        classes, problems = _ovo_problems(X[train_idx], labels[train_idx])
        # a value listed twice in the spec is trained once and tabled twice
        for gamma in dict.fromkeys(gamma_values):
            live = [c for c in dict.fromkeys(c_values) if correct[c, gamma] is not None]
            if not live:
                continue
            fits = _train(list(problems.values()), live, gamma, tol)
            for c, machines in zip(live, fits):
                if any(isinstance(m, TrainingError) for m in machines):
                    correct[c, gamma] = None
                    continue
                model = SvmModel(classes=classes, machines=dict(zip(problems, machines)),
                                 c=float(c), gamma=float(gamma))
                correct[c, gamma] += int((model.predict_batch(X[held]) == labels[held]).sum())
    best: tuple[float, float, float] | None = None
    table: list[tuple[float, float, float]] = []
    for c in c_values:
        for gamma in gamma_values:
            hits = correct[c, gamma]
            accuracy = hits / n if hits is not None else 0.0
            table.append((c, gamma, accuracy))
            if best is None or accuracy > best[2]:
                best = (c, gamma, accuracy)
    return GridSearchResult(c=best[0], gamma=best[1], accuracy=best[2], table=table)
