"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the code paths they check: the SVM dual optimum
comes from exhaustive active-set enumeration, gradients from central finite
differences, the exact SMO reference solves one machine at a time with
scalar pair steps, the schedule the batched solver must reproduce bit for
bit, the reference layout puts trained machines' support vectors into shared
columns by hashing each row's bytes, the model training must build byte for
byte, one-vs-one prediction runs one machine and one kernel block at a
time, the exact forest reference searches splits one feature at a time
over a one-hot class cumsum, the result the vectorized search must
reproduce bit for bit, and forest prediction walks one tree node by node
for one row at a time, the probabilities the flat-array walk must match
byte for byte.  The word-feature references fold angles with
numpy's float remainder, normalize HOG blocks one at a time, build
resize weights with one `np.add.at` per tap, and find the word box by
dilating the ink on a page padded by `np.pad`; the vectorized feature
chain must match them byte for byte.  A word is drawn by stamping the pen
disc once per offset and dropping the pixels off the canvas, the mask the
one dilation must match byte for byte.  A PGM header is read by the
byte-at-a-time tokenizer that the one regular expression replaced, whose
arrays and error messages the decoder must reproduce exactly.
PCA is fit by the SVD of a centered copy, ``X - mean``, and each row is
reduced by its own product, the model and rows that centering in place must
reproduce bit for bit.
The random streams come from the formula itself in Python integers, and the
sparse projection is a scipy CSR matrix drawn from float uniforms, whose
entries the dense matrix must match byte for byte.  The held-out rows
come from the three functions that drew them before one per-class shuffle
served them all, a uniform split, a per-class split and the grid's folds,
whose indices the one shuffle must reproduce exactly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import sparse

from hwr import imaging, rng
from hwr.dataset import SplitResult
from hwr.dimred import PcaModel
from hwr.features import DEFAULT_HOG, L2HYS_CLIP, L2HYS_EPS, HogParams, _grid_shape
from hwr.forest import _GAIN_EPS, ForestModel, TreeNode, gini
from hwr.imaging import PgmError, _as_mask, _cubic_kernel
from hwr.labels import N_CLASSES
from hwr.mlp import batch_gradients
from hwr.svm import (
    FOLDS,
    BinarySvm,
    ConvergenceError,
    DegenerateDataError,
    SvmModel,
    dual_objective,
    kernel_matrix,
)
from hwr.synth import ARCHETYPES, CANVAS, _stroke_points

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


def scalar_ovo_machines(X, labels, c, gamma, tol=1e-3, max_iter=None):
    """Sorted classes and each pair's machine, trained one after another by the scalar solver."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    classes = sorted(int(v) for v in np.unique(labels))
    machines = {}
    for a, b in itertools.combinations(classes, 2):
        mask = (labels == a) | (labels == b)
        y = np.where(labels[mask] == a, 1.0, -1.0)
        machines[(a, b)] = scalar_smo_train(X[mask], y, c, gamma, tol, max_iter)
    return classes, machines


def scalar_ovo_train(X, labels, c, gamma, tol=1e-3, max_iter=None) -> SvmModel:
    """One-vs-one model of the scalar solver's machines in the reference layout."""
    classes, machines = scalar_ovo_machines(X, labels, c, gamma, tol, max_iter)
    return layout_from_machines(classes, machines, c, gamma)


def layout_from_machines(classes: list[int], machines: dict[tuple[int, int], BinarySvm],
                         c: float, gamma: float) -> SvmModel:
    """The model of trained machines.

    Support vectors are deduplicated by their bytes, in order of first use
    over sorted pairs.
    """
    pairs = sorted(machines)
    stacked = np.concatenate([machines[p].support_vectors for p in pairs])
    columns: dict[bytes, int] = {}
    column = np.array([columns.setdefault(row.tobytes(), len(columns)) for row in stacked],
                      dtype=np.intp)
    owner = np.repeat(np.arange(len(pairs)), [len(machines[p].dual_coef) for p in pairs])
    coef = np.zeros((len(pairs), len(columns)))
    # a row a machine holds twice gets the sum of its coefficients
    np.add.at(coef, (owner, column), np.concatenate([machines[p].dual_coef for p in pairs]))
    first = np.unique(column, return_index=True)[1]
    return SvmModel(classes, pairs, stacked[first], coef,
                    np.array([machines[p].bias for p in pairs], dtype=np.float64),
                    float(c), float(gamma),
                    np.array([machines[p].passes for p in pairs], dtype=np.int64))


def machine_decision(machine: BinarySvm, X: np.ndarray) -> np.ndarray:
    """Decision values of one machine on the rows of X, from its own kernel block."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    K = kernel_matrix(machine.support_vectors, X, machine.gamma)
    return machine.dual_coef @ K + machine.bias


def per_machine_predict(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """One-vs-one prediction one machine at a time, each with its own kernel block.

    The predict path that the shared support-vector layout replaced: votes
    and |decision| magnitudes accumulate in the order of ``model.machines``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    votes = np.zeros((X.shape[0], len(model.classes)))
    magnitude = np.zeros_like(votes)
    index = {cls: i for i, cls in enumerate(model.classes)}
    for (a, b), machine in model.machines.items():
        f = machine_decision(machine, X)
        wins_a = f > 0.0
        ia, ib = index[a], index[b]
        votes[wins_a, ia] += 1
        votes[~wins_a, ib] += 1
        magnitude[wins_a, ia] += np.abs(f[wins_a])
        magnitude[~wins_a, ib] += np.abs(f[~wins_a])
    # ranking: votes, then summed |decision|, then lowest class id
    classes = np.asarray(model.classes, dtype=np.intp)
    keys = (np.broadcast_to(classes, votes.shape), -magnitude, -votes)
    return classes[np.lexsort(keys, axis=1)[:, 0]]


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
            up = batch_gradients(model, X, y)[1]
            flat[i] = keep - delta
            down = batch_gradients(model, X, y)[1]
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
        lo, hi = float(sv[cuts[pick]]), float(sv[cuts[pick] + 1])
        threshold = 0.5 * (lo + hi)
        if not lo <= threshold < hi:
            threshold = lo
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


def leaf_for(tree: TreeNode, x: np.ndarray) -> TreeNode:
    """The leaf that one sample reaches: left while x[feature] <= threshold."""
    node = tree
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def per_tree_predict_proba(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Forest probabilities one row and one tree at a time.

    The predict path that the flat-array walk replaced: each row's leaf
    distributions are added to a running sum from zero in tree order, then
    divided by the tree count.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    probs = np.zeros((X.shape[0], N_CLASSES))
    for row, x in zip(probs, X):
        for tree in model.trees:
            counts = leaf_for(tree, x).counts
            row += counts / counts.sum()
    return probs / model.m


def scalar_cell_histograms(img: np.ndarray, params: HogParams = DEFAULT_HOG) -> np.ndarray:
    """Per-cell orientation histograms, shape (cells_y, cells_x, bins).

    Gradients use centered differences with replicated edges; each pixel
    votes its magnitude into the two orientation bins nearest its unsigned
    angle, split linearly.
    """
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {arr.shape}")
    h, w = arr.shape
    _, _, n_cy, n_cx = _grid_shape(h, w, params)

    gx = np.empty_like(arr)
    gx[:, 1:-1] = arr[:, 2:] - arr[:, :-2]
    gx[:, 0] = arr[:, 1] - arr[:, 0]
    gx[:, -1] = arr[:, -1] - arr[:, -2]
    gy = np.empty_like(arr)
    gy[1:-1, :] = arr[2:, :] - arr[:-2, :]
    gy[0, :] = arr[1, :] - arr[0, :]
    gy[-1, :] = arr[-1, :] - arr[-2, :]

    magnitude = np.hypot(gx, gy)
    angle = np.degrees(np.arctan2(gy, gx)) % 180.0
    position = angle / (180.0 / params.bins)
    lower = np.floor(position)
    frac = position - lower
    lo_bin = lower.astype(np.intp) % params.bins
    hi_bin = (lo_bin + 1) % params.bins

    ch, cw = params.cell
    cell_idx = (np.arange(h)[:, None] // ch) * n_cx + (np.arange(w)[None, :] // cw)
    size = n_cy * n_cx * params.bins
    hist = np.bincount((cell_idx * params.bins + lo_bin).ravel(),
                       weights=(magnitude * (1.0 - frac)).ravel(), minlength=size)
    hist += np.bincount((cell_idx * params.bins + hi_bin).ravel(),
                        weights=(magnitude * frac).ravel(), minlength=size)
    return hist.reshape(n_cy, n_cx, params.bins)


def _l2hys(block: np.ndarray) -> np.ndarray:
    v = block / np.sqrt(block @ block + L2HYS_EPS**2)
    v = np.minimum(v, L2HYS_CLIP)
    return v / np.sqrt(v @ v + L2HYS_EPS**2)


def scalar_hog(img: np.ndarray, params: HogParams = DEFAULT_HOG) -> np.ndarray:
    """HOG descriptor of a grayscale image compatible with `params`."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {arr.shape}")
    h, w = arr.shape
    n_by, n_bx, _, _ = _grid_shape(h, w, params)
    hist = scalar_cell_histograms(arr, params)
    bh_c = params.block[0] // params.cell[0]
    bw_c = params.block[1] // params.cell[1]
    sh_c = params.stride[0] // params.cell[0]
    sw_c = params.stride[1] // params.cell[1]
    blocks = []
    for by in range(n_by):
        for bx in range(n_bx):
            y0, x0 = by * sh_c, bx * sw_c
            block = hist[y0:y0 + bh_c, x0:x0 + bw_c, :].ravel()
            blocks.append(_l2hys(block))
    return np.concatenate(blocks)


def add_at_resample_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic weights mapping n_in samples to n_out along one axis.

    Output center i samples source coordinate (i + 0.5) * n_in/n_out - 0.5;
    the four nearest taps get kernel weights, with out-of-range taps clamped
    to the border sample (weights accumulate there).
    """
    weights = np.zeros((n_out, n_in))
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    base = np.floor(src).astype(int)
    rows = np.arange(n_out)
    for tap in range(-1, 3):
        idx = base + tap
        w = _cubic_kernel(src - idx)
        np.add.at(weights, (rows, np.clip(idx, 0, n_in - 1)), w)
    return weights


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation with a (2*radius+1)^2 square structuring element."""
    arr = _as_mask(mask)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        return arr.copy()
    h, w = arr.shape
    padded = np.zeros((h + 2 * radius, w + 2 * radius), dtype=bool)
    padded[radius:radius + h, radius:radius + w] = arr
    out = np.zeros((h, w), dtype=bool)
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            out |= padded[dy:dy + h, dx:dx + w]
    return out


def reference_preprocess(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical raster and the cut ink mask through the reference chain.

    Pad the image with one pixel of 255 by `np.pad`, binarize it at the
    image's own Otsu threshold, dilate with a 3x3 square, box the dilated ink
    with `np.nonzero`, cut that box from the padded grayscale and the
    undilated ink, and resize the grayscale with the `np.add.at` weights.
    """
    gray = np.asarray(img, dtype=np.uint8)
    page = np.pad(gray, 1, constant_values=255)
    ink = page < imaging.otsu_threshold(gray)
    ys, xs = np.nonzero(dilate(ink, 1))
    rows, cols = slice(ys.min(), ys.max() + 1), slice(xs.min(), xs.max() + 1)
    word = page[rows, cols]
    wy = add_at_resample_matrix(word.shape[0], imaging.CANONICAL_HEIGHT)
    wx = add_at_resample_matrix(word.shape[1], imaging.CANONICAL_WIDTH)
    values = wy @ word.astype(np.float64) @ wx.T
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8), ink[rows, cols]


def scalar_word_features(img: np.ndarray) -> np.ndarray:
    """The HOG word feature of a raw image: the reference chain, then the
    per-block HOG."""
    return scalar_hog(reference_preprocess(img)[0])


_WHITESPACE = b" \t\r\n\x0b\x0c"


def _next_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":  # comment runs to end of line
            while pos < n and data[pos:pos + 1] not in b"\r\n":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmError(f"truncated header: missing {field}")
    start = pos
    while pos < n and data[pos:pos + 1] not in _WHITESPACE and data[pos:pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, field: str) -> tuple[int, int]:
    """A header field: ASCII decimal digits only (no sign, no underscores)."""
    token, pos = _next_token(data, pos, field)
    if not token.isdigit():  # bytes.isdigit accepts only b"0".."9"
        raise PgmError(f"invalid {field}: {token!r}")
    return int(token), pos


def tokenizer_decode_pgm(data: bytes) -> np.ndarray:
    """Decode a binary PGM (magic P5, maxval 255) into a grayscale raster."""
    if not data.startswith(b"P5"):
        raise PgmError(f"bad magic {data[:2]!r}: expected b'P5'")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}: must be 255")
    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise PgmError("missing whitespace after maxval")
    raster = data[pos + 1:]
    expected = width * height
    if len(raster) < expected:
        raise PgmError(f"truncated pixel data: expected {expected} bytes, got {len(raster)}")
    if len(raster) > expected:
        raise PgmError(f"trailing data: expected {expected} pixel bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def scalar_render_mask(
    class_id: int,
    thickness: float,
    rotation_deg: float,
    scale: float,
    shift: tuple[float, float],
) -> np.ndarray:
    """Boolean ink mask for one archetype under the given affine jitter.

    The pen disc is stamped once per offset, and the pixels that land off the
    canvas are dropped.
    """
    if class_id not in ARCHETYPES:
        raise ValueError(f"class id {class_id} out of range [1, {N_CLASSES}]")
    h, w = CANVAS
    margin_x, margin_y = 0.07 * w, 0.14 * h
    unit_to_px = np.array([w - 2 * margin_x, h - 2 * margin_y])
    offset = np.array([margin_x, margin_y])
    pts = np.vstack([_stroke_points(p, unit_to_px, offset) for p in ARCHETYPES[class_id]])

    center = np.array([w / 2.0, h / 2.0])
    theta = math.radians(rotation_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    pts = (pts - center) @ (scale * rot).T + center + np.asarray(shift)

    mask = np.zeros((h, w), dtype=bool)
    r = thickness / 2.0
    reach = int(math.floor(r))
    px = np.rint(pts[:, 0]).astype(int)
    py = np.rint(pts[:, 1]).astype(int)
    for dy in range(-reach, reach + 1):
        for dx in range(-reach, reach + 1):
            if dx * dx + dy * dy > r * r:
                continue
            ys, xs = py + dy, px + dx
            on = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
            mask[ys[on], xs[on]] = True
    return mask


def centered_copy_pca(X: np.ndarray, k: int) -> tuple[PcaModel, np.ndarray]:
    """The top-k PCA model of X from the SVD of ``X - mean``, with each component's
    largest-magnitude entry positive, and X's rows reduced one ``matmul`` at a time."""
    mean = X.mean(axis=0)
    centered = X - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    lead = np.argmax(np.abs(components), axis=1)
    components[components[np.arange(k), lead] < 0] *= -1.0
    model = PcaModel(mean=mean, components=components,
                     explained_variance=s[:k] ** 2 / (X.shape[0] - 1))
    return model, np.array([np.matmul(row, components.T) for row in centered])


def scalar_splitmix64(seed: int, count: int) -> list[int]:
    """The first `count` splitmix64 outputs by the formula of the hwr.rng docstring."""
    mask = (1 << 64) - 1
    out = []
    for i in range(count):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def splitmix64(seed: int, count: int, size: int = rng.CHUNK) -> np.ndarray:
    """The first `count` splitmix64 outputs as uint64, joined from `rng.blocks` of
    ``size`` outputs."""
    out = np.empty(count, dtype=np.uint64)
    for start, block in rng.blocks(seed, count, size):
        out[start:start + len(block)] = block
    return out


def uniforms(seed: int, count: int) -> np.ndarray:
    """float64 uniforms in [0, 1), the top 53 bits of each splitmix64 output."""
    bits = splitmix64(seed, count)
    bits >>= np.uint64(11)
    return bits * 2.0**-53


def sparse_projection(d: int, k: int, seed: int) -> sparse.csr_array:
    """The k x d sparse projection as scipy CSR, drawn from float uniforms.

    Entry t (row-major) is +sqrt(3/k) where u[t] < 1/6 and -sqrt(3/k) where
    1/6 <= u[t] < 1/3.
    """
    u = uniforms(seed, d * k)
    scale = math.sqrt(3.0 / k)
    nz = np.nonzero(u < 1.0 / 3.0)[0]
    data = np.where(u[nz] < 1.0 / 6.0, scale, -scale)
    return sparse.coo_array((data, (nz // d, nz % d)), shape=(k, d)).tocsr()


def uniform_split(n: int, ratio: float, seed: int) -> SplitResult:
    """Seeded uniform shuffle; first floor(ratio*n) indices train, rest test."""
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = math.floor(ratio * n)
    return SplitResult(
        train_indices=np.sort(perm[:n_train]),
        test_indices=np.sort(perm[n_train:]),
    )


def stratified_split(labels: np.ndarray, ratio: float, seed: int) -> SplitResult:
    """Per-class seeded shuffle keeping the train fraction within each class."""
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape[0] < 2:
        raise ValueError(f"need at least 2 samples to split, got {labels.shape[0]}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    gen = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        gen.shuffle(idx)
        cut = math.floor(ratio * idx.shape[0])
        train.extend(idx[:cut])
        test.extend(idx[cut:])
    return SplitResult(
        train_indices=np.sort(np.array(train, dtype=np.intp)),
        test_indices=np.sort(np.array(test, dtype=np.intp)),
    )


def stratified_folds(labels: np.ndarray, seed: int) -> list[np.ndarray]:
    """Deterministic stratified FOLDS-fold assignment (shuffle within class)."""
    labels = np.asarray(labels, dtype=np.intp)
    present, counts = np.unique(labels, return_counts=True)
    if counts.min() < FOLDS:
        thin = present[counts < FOLDS].tolist()
        raise ValueError(
            f"stratification infeasible: classes {thin} have fewer than {FOLDS} samples"
        )
    gen = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(FOLDS)]
    for cls in present:
        idx = np.nonzero(labels == cls)[0]
        gen.shuffle(idx)
        for j, i in enumerate(idx):
            folds[j % FOLDS].append(int(i))
    return [np.sort(np.array(f, dtype=np.intp)) for f in folds]
