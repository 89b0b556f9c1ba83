"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the code paths they check: the SVM dual optimum
comes from exhaustive active-set enumeration, gradients from central finite
differences, the exact SMO reference solves one machine at a time with
scalar pair steps, the schedule the batched solver must reproduce bit for
bit, and the exact forest reference searches splits one feature at a time
over a one-hot class cumsum, the result the vectorized search must
reproduce bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hwr.forest import _GAIN_EPS, TreeNode, gini
from hwr.labels import N_CLASSES
from hwr.mlp import batch_gradients, batch_loss
from hwr.svm import (
    BinarySvm,
    ConvergenceError,
    DegenerateDataError,
    SvmModel,
    dual_objective,
    kernel_matrix,
)

_STEP_EPS = 1e-8       # curvature/objective margin below which a direction is flat
_SV_EPS = 1e-12        # alpha > this counts as a support vector


def brute_force_dual(K: np.ndarray, y: np.ndarray, c: float) -> float:
    """Exact dual optimum by enumerating every active-set assignment.

    Each variable is pinned at 0, pinned at C, or free; free variables and
    the equality multiplier come from the KKT linear system.  The optimum of
    the concave dual satisfies KKT under one of the 3^n assignments, so the
    best feasible candidate is the exact solution.  Independent of the SMO
    path; tractable because n <= 6.
    """
    n = len(y)
    Q = K * np.outer(y, y)
    best = 0.0  # alpha = 0 is always feasible
    for assignment in itertools.product((0, 1, 2), repeat=n):
        free = np.array([i for i, s in enumerate(assignment) if s == 2], dtype=int)
        at_c = np.array([i for i, s in enumerate(assignment) if s == 1], dtype=int)
        a = np.zeros(n)
        a[at_c] = c
        if free.size:
            m = free.size
            system = np.zeros((m + 1, m + 1))
            system[:m, :m] = Q[np.ix_(free, free)]
            system[:m, m] = y[free]
            system[m, :m] = y[free]
            rhs = np.empty(m + 1)
            rhs[:m] = 1.0 - (Q[np.ix_(free, at_c)] @ a[at_c] if at_c.size else 0.0)
            rhs[m] = -(y[at_c] @ a[at_c]) if at_c.size else 0.0
            try:
                sol = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                continue
            if (sol[:m] < -1e-9).any() or (sol[:m] > c + 1e-9).any():
                continue
            a[free] = np.clip(sol[:m], 0.0, c)
        if abs(y @ a) > 1e-8:
            continue
        best = max(best, dual_objective(a, y, K))
    return best


class ScalarSmo:
    """State for one binary subproblem; K is the precomputed Gram matrix.

    Pair selection is the maximal-violating-pair rule: with lambda_i =
    y_i - raw_i (the bias that would put point i exactly on its margin),
    KKT holds within tol iff max(lambda over I_up) - min(lambda over I_low)
    <= tol, where I_up/I_low are the index sets whose multipliers can still
    move the functional margin up/down.  Selecting the argmax/argmin pair
    keeps every step bias-free and guarantees progress, which avoids the
    bias see-saw a single running threshold is prone to.
    """

    def __init__(self, K: np.ndarray, y: np.ndarray, c: float, tol: float):
        self.K = K
        self.y = y.astype(np.float64)
        self.C = float(c)
        self.tol = float(tol)
        self.n = len(y)
        self.alphas = np.zeros(self.n)
        self.raw = np.zeros(self.n)  # sum_j alpha_j y_j K[i, j], no bias
        self.b = 0.0
        self._snap = 1e-12 * max(1.0, self.C)

    def _step(self, i1: int, i2: int) -> bool:
        """Jointly optimize the pair (i1, i2); returns False on no movement."""
        a1o, a2o = self.alphas[i1], self.alphas[i2]
        y1, y2 = self.y[i1], self.y[i2]
        s = y1 * y2
        if s > 0:
            L, H = max(0.0, a1o + a2o - self.C), min(self.C, a1o + a2o)
        else:
            L, H = max(0.0, a2o - a1o), min(self.C, self.C + a2o - a1o)
        if H <= L:
            return False
        k11, k22, k12 = self.K[i1, i1], self.K[i2, i2], self.K[i1, i2]
        eta = k11 + k22 - 2.0 * k12
        g1 = self.raw[i1] - y1
        g2 = self.raw[i2] - y2
        if eta > _STEP_EPS:
            a2 = a2o + y2 * (g1 - g2) / eta
            a2 = min(max(a2, L), H)
        else:
            # flat or concave direction: pick the better segment endpoint
            f1 = y1 * g1 - a1o * k11 - s * a2o * k12
            f2 = y2 * g2 - s * a1o * k12 - a2o * k22
            L1 = a1o + s * (a2o - L)
            H1 = a1o + s * (a2o - H)
            psi_l = L1 * f1 + L * f2 + 0.5 * L1 * L1 * k11 + 0.5 * L * L * k22 + s * L * L1 * k12
            psi_h = H1 * f1 + H * f2 + 0.5 * H1 * H1 * k11 + 0.5 * H * H * k22 + s * H * H1 * k12
            if psi_l < psi_h - _STEP_EPS:
                a2 = L
            elif psi_h < psi_l - _STEP_EPS:
                a2 = H
            else:
                return False
        if a2 - a2o == 0.0:
            return False
        a1 = a1o + s * (a2o - a2)
        # snap to the box so bound states stay exact
        if a1 < self._snap:
            a2 += s * a1
            a1 = 0.0
        elif a1 > self.C - self._snap:
            a2 += s * (a1 - self.C)
            a1 = self.C
        if a2 < self._snap:
            a2 = 0.0
        elif a2 > self.C - self._snap:
            a2 = self.C
        d1 = y1 * (a1 - a1o)
        d2 = y2 * (a2 - a2o)
        if d1 == 0.0 and d2 == 0.0:
            return False
        self.raw += d1 * self.K[i1] + d2 * self.K[i2]
        self.alphas[i1] = a1
        self.alphas[i2] = a2
        return True

    def _select(self) -> tuple[int, int, float]:
        """Maximal violating pair and the current violation gap."""
        lam = self.y - self.raw
        pos = self.y > 0
        movable_up = self.alphas < self.C
        movable_dn = self.alphas > 0.0
        up = (pos & movable_up) | (~pos & movable_dn)
        low = (pos & movable_dn) | (~pos & movable_up)
        if not up.any() or not low.any():
            return -1, -1, -np.inf
        lam_up = np.where(up, lam, -np.inf)
        lam_low = np.where(low, lam, np.inf)
        i = int(np.argmax(lam_up))
        j = int(np.argmin(lam_low))
        return i, j, float(lam_up[i] - lam_low[j])

    def solve(self, max_iter: int) -> int:
        iterations = 0
        while True:
            i, j, gap = self._select()
            if gap <= self.tol:
                break
            iterations += 1
            if iterations > max_iter:
                raise ConvergenceError(
                    f"SMO did not converge within {max_iter} pair steps "
                    f"(n={self.n}, C={self.C}): KKT gap {gap:.3e} > tol {self.tol:.0e}"
                )
            if not self._step(i, j):
                raise ConvergenceError(
                    f"SMO stalled after {iterations} pair steps "
                    f"(n={self.n}, C={self.C}): KKT gap {gap:.3e} > tol {self.tol:.0e} "
                    f"but pair ({i}, {j}) admits no progress"
                )
        # bias: average the margin-exact bias over unbounded support vectors,
        # falling back to the midpoint of the feasible interval
        lam = self.y - self.raw
        free = (self.alphas > 0.0) & (self.alphas < self.C)
        if free.any():
            self.b = float(lam[free].mean())
        else:
            i, j, _ = self._select()
            if i < 0:
                self.b = 0.0
            else:
                self.b = 0.5 * float(lam[i] + lam[j])
        return iterations


def scalar_smo_train(X, y, c, gamma=1.0, tol=1e-3, max_iter=None) -> BinarySvm:
    """One binary machine by the scalar solver; max_iter defaults to 10*n^2."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    solver = ScalarSmo(kernel_matrix(X, X, gamma), y, c, tol)
    iterations = solver.solve(max_iter if max_iter is not None else 10 * n * n)
    decision = solver.raw + solver.b
    if float(decision.max() - decision.min()) < 1e-9:
        raise DegenerateDataError("decision function is constant over the training data")
    sv = solver.alphas > _SV_EPS
    return BinarySvm(support_vectors=X[sv].copy(), dual_coef=(solver.alphas * y)[sv],
                     bias=solver.b, c=float(c), gamma=float(gamma), passes=iterations)


def scalar_ovo_train(X, labels, c, gamma, tol=1e-3, max_iter=None) -> SvmModel:
    """One-vs-one model whose machines are trained one after another by the scalar solver."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    classes = sorted(int(v) for v in np.unique(labels))
    machines = {}
    for a, b in itertools.combinations(classes, 2):
        mask = (labels == a) | (labels == b)
        y = np.where(labels[mask] == a, 1.0, -1.0)
        machines[(a, b)] = scalar_smo_train(X[mask], y, c, gamma, tol, max_iter)
    return SvmModel(classes=classes, machines=machines, c=float(c), gamma=float(gamma))


def recover_alphas(machine, X: np.ndarray) -> np.ndarray:
    """Per-training-point multipliers of a BinarySvm (zero off the SVs)."""
    alphas = np.zeros(X.shape[0])
    for i, row in enumerate(X):
        match = np.nonzero((machine.support_vectors == row).all(axis=1))[0]
        if match.size:
            alphas[i] = abs(machine.dual_coef[match[0]])
    return alphas


def max_kkt_residual(machine, X: np.ndarray, y: np.ndarray, c: float) -> float:
    """Largest violation of the margin condition matching each alpha regime."""
    from hwr.svm import kernel_matrix

    alphas = recover_alphas(machine, X)
    K = kernel_matrix(X, machine.support_vectors, machine.gamma)
    margins = y * (K @ machine.dual_coef + machine.bias)
    worst = 0.0
    for alpha, margin in zip(alphas, margins):
        if alpha <= 1e-9:
            worst = max(worst, 1.0 - margin)
        elif alpha >= c - 1e-9:
            worst = max(worst, margin - 1.0)
        else:
            worst = max(worst, abs(margin - 1.0))
    return float(worst)


def relative_gradient_errors(model, X, y, delta: float = 1e-5) -> np.ndarray:
    """Central finite differences against every analytic gradient entry.

    The denominator floor (1e-4) makes tiny-gradient comparisons behave like
    an absolute tolerance of tol*1e-4, which sits exactly at the float64
    noise floor of central differences on an O(1) loss.
    """
    grads, _ = batch_gradients(model, X, y)
    errors = []
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(model, name)
        flat = param.ravel()
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + delta
            up = batch_loss(model, X, y)
            flat[i] = keep - delta
            down = batch_loss(model, X, y)
            flat[i] = keep
            numeric[i] = (up - down) / (2 * delta)
        analytic = grads[name].ravel()
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        errors.append(np.abs(analytic - numeric) / denom)
    return np.concatenate(errors)


def scalar_best_split(
    X: np.ndarray, y0: np.ndarray, features: np.ndarray, n_classes: int
) -> tuple[float, int, float] | None:
    """Highest Gini-decrease (gain, feature, threshold) over midpoint cuts.

    X is (n, d); the candidate features are scanned one at a time.
    """
    n = y0.shape[0]
    total_counts = np.bincount(y0, minlength=n_classes).astype(np.float64)
    parent = gini(total_counts)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y0] = 1.0
    best: tuple[float, int, float] | None = None
    for f in features:
        v = X[:, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        cuts = np.nonzero(sv[:-1] < sv[1:])[0]
        if cuts.size == 0:
            continue
        left = np.cumsum(onehot[order], axis=0)[cuts]
        nl = (cuts + 1).astype(np.float64)
        nr = n - nl
        right = total_counts[None, :] - left
        gini_l = 1.0 - (left * left).sum(axis=1) / (nl * nl)
        gini_r = 1.0 - (right * right).sum(axis=1) / (nr * nr)
        gains = parent - (nl * gini_l + nr * gini_r) / n
        pick = int(np.argmax(gains))
        gain = float(gains[pick])
        if gain <= _GAIN_EPS:
            continue
        threshold = float(0.5 * (sv[cuts[pick]] + sv[cuts[pick] + 1]))
        if best is None or gain > best[0] + _GAIN_EPS:
            best = (gain, int(f), threshold)
    return best


def scalar_grow_tree(
    X: np.ndarray,
    labels: np.ndarray,
    tree_seed,
    n_classes: int = N_CLASSES,
    feature_subset: int | None = None,
    max_depth: int | None = None,
) -> TreeNode:
    """grow_tree with the scalar split search on the node's full-width rows."""
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

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        counts = np.bincount(y0[idx], minlength=n_classes)
        if (
            idx.shape[0] < 2
            or (counts > 0).sum() == 1
            or (max_depth is not None and depth >= max_depth)
        ):
            return TreeNode(counts=counts)
        features = np.sort(gen.choice(d, size=subset, replace=False))
        best = scalar_best_split(X[idx], y0[idx], features, n_classes)
        if best is None:
            return TreeNode(counts=counts)
        _, feature, threshold = best
        goes_left = X[idx, feature] <= threshold
        return TreeNode(
            feature=feature,
            threshold=threshold,
            left=build(idx[goes_left], depth + 1),
            right=build(idx[~goes_left], depth + 1),
        )

    return build(np.arange(X.shape[0]), 0)
