"""Classifiers over persistence features and group-level cross-validation.

Both models are self-contained so that every tie-break and random draw is
fixed by this module: results are reproducible from the seed alone. Random
draws use numpy's default PCG64 generator; per-tree streams are spawned from
the master seed via ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import LabeledDataset
from .features import build_matrix


# ---------------------------------------------------------------------------
# logistic regression

_TOL = 1e-8  # fit_logistic stops once the gradient's max-norm is at most this
_MAX_ITER = 200  # and after this many Newton steps at most


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Fitted logistic regression: beta[0] is the intercept."""

    beta: np.ndarray
    threshold: float = 0.5
    status: str = "converged"
    n_iter: int = 0

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64, copy=True)
        beta.flags.writeable = False
        if beta.ndim != 1 or not np.all(np.isfinite(beta)):
            raise ValueError("beta must be a finite vector")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        object.__setattr__(self, "beta", beta)


def _expit(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _loglik(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    eta = X @ beta
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def _score(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood at beta."""
    return X.T @ (y - _expit(X @ beta))


def _as_matrix(Z) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError("feature matrix must be two-dimensional")
    return Z


def _as_binary(y, n: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {y.shape}")
    y = y.astype(np.float64)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    return y


def fit_logistic(Z, y, *, threshold: float = 0.5) -> LogisticModel:
    """Maximum-likelihood logistic regression by damped Newton iteration.

    The unpenalised log-likelihood sum(y*eta - log(1 + exp(eta))) is maximised
    with step-halving whenever a full Newton step would decrease it. Iteration
    stops once the gradient's max-norm is at most ``_TOL`` or after
    ``_MAX_ITER`` steps; a fit whose final coefficients classify the training
    data perfectly at ``threshold`` is flagged ``"separated"``, since the
    likelihood then has no interior maximum. The model keeps ``threshold``
    for :func:`predict_logistic`.
    """
    Z = _as_matrix(Z)
    n = Z.shape[0]
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    y = _as_binary(y, n)
    X = np.column_stack([np.ones(n), Z])
    beta = np.zeros(X.shape[1])
    ll = _loglik(X, y, beta)
    n_iter = 0
    converged = False
    for it in range(_MAX_ITER):
        p = _expit(X @ beta)
        g = _score(X, y, beta)
        if np.max(np.abs(g)) <= _TOL:
            converged = True
            break
        n_iter = it + 1
        w = p * (1.0 - p)
        H = X.T @ (X * w[:, None])
        step = np.linalg.lstsq(H, g, rcond=None)[0]
        scale = 1.0
        improved = False
        for _ in range(50):
            cand = beta + scale * step
            cand_ll = _loglik(X, y, cand)
            if cand_ll >= ll:
                beta, ll = cand, cand_ll
                improved = True
                break
            scale /= 2.0
        if not improved:
            break
    # Perfect training classification means the data is separable (scaling
    # beta then pushes the likelihood to its supremum), so the "stationary
    # point" the tolerance found is saturation, not an interior maximum.
    preds = (_expit(X @ beta) > threshold).astype(np.float64)
    if np.array_equal(preds, y):
        status = "separated"
    elif converged:
        status = "converged"
    else:
        status = "max_iter"
    return LogisticModel(beta, threshold, status, n_iter)


def _as_rows(z, width: int) -> tuple[np.ndarray, bool]:
    """A feature row or matrix as a 2-D array, and whether it was one row."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != width:
        raise ValueError(f"expected a feature row or a matrix of rows of length {width}")
    return np.atleast_2d(z), z.ndim == 1


def predict_logistic(model: LogisticModel, z):
    """Probability of class 1 and the thresholded class (1 when p > threshold).

    ``z`` is one feature row, giving a float and an int, or a matrix with one
    row per sample, giving an array of probabilities and an array of classes.
    """
    Z, one_row = _as_rows(z, model.beta.size - 1)
    p = _expit(model.beta[0] + Z @ model.beta[1:])
    c = (p > model.threshold).astype(np.int64)
    return (float(p[0]), int(c[0])) if one_row else (p, c)


# ---------------------------------------------------------------------------
# random forest


def gini(labels) -> float:
    """Gini impurity of a set of binary labels (0.0 for an empty or pure set)."""
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0:
        return 0.0
    p1 = y.mean()
    return float(1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1))


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: tuple[int, int] | None = None


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeNode, ...]
    n_features: int
    n_trees: int
    mtry: int
    min_leaf: int
    seed: int


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray, feats,
                min_leaf: int) -> tuple[float, int, float] | None:
    """Lowest weighted-Gini split over the given (sorted) features.

    All features are scored at once: row j holds feature ``feats[j]`` sorted
    over the node's samples, and column c the cut that leaves c + 1 samples
    on the left. Ties go to the smaller feature index, then the smaller
    threshold. Thresholds sit halfway between consecutive distinct values.
    """
    n = idx.size
    xs = X[np.ix_(idx, feats)].T
    order = np.argsort(xs, axis=1, kind="stable")
    xv = np.take_along_axis(xs, order, axis=1)
    ones = np.cumsum(y[idx][order], axis=1)
    cut = np.arange(1, n)  # left-side sizes
    l1 = ones[:, :-1]
    l0 = cut - l1
    r1 = ones[:, -1:] - l1
    r0 = (n - cut) - r1
    gl = 1.0 - (l1 / cut) ** 2 - (l0 / cut) ** 2
    gr = 1.0 - (r1 / (n - cut)) ** 2 - (r0 / (n - cut)) ** 2
    g = (cut * gl + (n - cut) * gr) / n
    g[(xv[:, 1:] == xv[:, :-1]) | (cut < min_leaf) | (n - cut < min_leaf)] = np.inf
    row_best = g.min(axis=1)
    j = int(np.argmin(row_best))  # first minimum: smallest feature wins ties
    if row_best[j] == np.inf:
        return None
    i = int(np.argmin(g[j]))  # first minimum: smallest threshold wins ties
    thr = float(xv[j, i] + xv[j, i + 1]) / 2.0
    return float(row_best[j]), int(feats[j]), thr


def _build_tree(X: np.ndarray, y: np.ndarray, start: np.ndarray,
                rng: np.random.Generator, mtry: int, min_leaf: int) -> TreeNode:
    # Depth-first, left child first, so the per-split candidate draws happen
    # in a fixed order for a given seed.
    q = X.shape[1]
    root = TreeNode()
    stack = [(root, start)]
    while stack:
        node, idx = stack.pop()
        ysub = y[idx]
        c1 = int(ysub.sum())
        c0 = idx.size - c1
        if c0 == 0 or c1 == 0 or idx.size < 2 * min_leaf:
            node.counts = (c0, c1)
            continue
        cand = np.sort(rng.choice(q, size=mtry, replace=False))
        found = _best_split(X, y, idx, cand, min_leaf)
        if found is None:
            # The drawn features are constant on this node; an impure node
            # still splits if any other feature can separate it.
            rest = np.setdiff1d(np.arange(q), cand)
            found = _best_split(X, y, idx, rest, min_leaf) if rest.size else None
        if found is None:
            node.counts = (c0, c1)
            continue
        _, f, thr = found
        mask = X[idx, f] <= thr
        node.feature = f
        node.threshold = thr
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.right, idx[~mask]))
        stack.append((node.left, idx[mask]))
    return root


def fit_forest(Z, y, *, n_trees: int = 1000, mtry: int | None = None,
               min_leaf: int = 1, seed: int = 1234,
               bootstrap: bool = True) -> ForestModel:
    """Random forest of CART trees on bootstrap samples.

    Each tree sees a bootstrap sample of size n drawn with replacement and,
    at every split, ``mtry`` candidate features (default ceil(sqrt(q))) drawn
    without replacement from its own seeded stream.
    """
    Z = _as_matrix(Z)
    n, q = Z.shape
    if n == 0 or q == 0:
        raise ValueError("cannot fit on an empty dataset")
    yb = _as_binary(y, n)
    if n_trees < 1:
        raise ValueError("n_trees must be positive")
    if mtry is None:
        mtry = math.ceil(math.sqrt(q))
    if not 1 <= mtry <= q:
        raise ValueError(f"mtry must be in [1, {q}], got {mtry}")
    if min_leaf < 1:
        raise ValueError("min_leaf must be positive")
    trees = []
    for child_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seed)
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(_build_tree(Z, yb, idx, rng, mtry, min_leaf))
    return ForestModel(tuple(trees), q, n_trees, mtry, min_leaf, seed)


def predict_forest(model: ForestModel, z):
    """Majority vote over the trees; an exact tie goes to class 0.

    ``z`` is one feature row, giving an int, or a matrix with one row per
    sample, giving an array of classes. Each tree routes all rows at once:
    every node splits the rows that reach it, and every leaf casts its vote
    for them.
    """
    Z, one_row = _as_rows(z, model.n_features)
    ones = np.zeros(Z.shape[0], dtype=np.int64)
    for tree in model.trees:
        stack = [(tree, np.arange(Z.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.counts is not None:
                if node.counts[1] > node.counts[0]:
                    ones[rows] += 1
                continue
            left = Z[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[left]))
            stack.append((node.right, rows[~left]))
    preds = (ones > len(model.trees) - ones).astype(np.int64)
    return int(preds[0]) if one_row else preds


# ---------------------------------------------------------------------------
# evaluation


def balanced_accuracy(y_true, y_pred) -> float:
    """Mean of the per-class recalls: (TP/(TP+FN) + TN/(TN+FP)) / 2."""
    yt = np.asarray(y_true)
    yp = np.asarray(y_pred)
    if yt.shape != yp.shape or yt.ndim != 1:
        raise ValueError("y_true and y_pred must be 1-D and the same length")
    for arr, name in ((yt, "y_true"), (yp, "y_pred")):
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError(f"{name} must contain only 0 and 1")
    pos = yt == 1
    neg = ~pos
    if not pos.any() or not neg.any():
        raise ValueError("y_true must contain both classes")
    sens = float((yp[pos] == 1).mean())
    spec = float((yp[neg] == 0).mean())
    return (sens + spec) / 2.0


def _group_key(g: str):
    # Finite numbers by value, then text ("1" < "1.0"); the rest (nan too) by text.
    try:
        value = float(g)
    except ValueError:
        return (1, 0.0, g)
    return (0, value, g) if math.isfinite(value) else (1, 0.0, g)


def group_folds(groups, scheme: str) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Index folds for group-level cross-validation.

    ``leave-one-group-out`` yields one fold per group. ``two-fold-AB`` sorts
    the group ids (numerically when they parse as numbers), takes the first
    half as subset A, and yields the two train/test swaps.
    """
    groups = [str(g) for g in groups]
    uniq = sorted(set(groups), key=_group_key)
    if len(uniq) < 2:
        raise ValueError("cross-validation needs at least 2 groups")
    garr = np.array(groups, dtype=object)
    if scheme == "leave-one-group-out":
        folds = []
        for g in uniq:
            test = np.flatnonzero(garr == g)
            train = np.flatnonzero(garr != g)
            folds.append((g, train, test))
        return folds
    if scheme == "two-fold-AB":
        half = math.ceil(len(uniq) / 2)
        in_a = np.isin(garr, np.array(uniq[:half], dtype=object))
        a = np.flatnonzero(in_a)
        b = np.flatnonzero(~in_a)
        return [("train-A-test-B", a, b), ("train-B-test-A", b, a)]
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class CVReport:
    """Per-fold balanced accuracies with summary statistics (std uses n-1)."""

    fold_names: tuple[str, ...]
    fold_scores: tuple[float, ...]
    skipped: tuple[str, ...] = ()
    mean: float = field(init=False, default=0.0)
    min: float = field(init=False, default=0.0)
    max: float = field(init=False, default=0.0)
    median: float = field(init=False, default=0.0)
    std: float = field(init=False, default=0.0)

    def __post_init__(self):
        if len(self.fold_names) != len(self.fold_scores) or not self.fold_scores:
            raise ValueError("need one name per score and at least one fold")
        a = np.asarray(self.fold_scores, dtype=np.float64)
        object.__setattr__(self, "mean", float(a.mean()))
        object.__setattr__(self, "min", float(a.min()))
        object.__setattr__(self, "max", float(a.max()))
        object.__setattr__(self, "median", float(np.median(a)))
        object.__setattr__(
            self, "std", float(np.std(a, ddof=1)) if a.size > 1 else float("nan")
        )

    def summary_table(self) -> str:
        lines = [f"{'fold':<24}balanced accuracy"]
        for name, score in zip(self.fold_names, self.fold_scores):
            lines.append(f"{name:<24}{score:.4f}")
        for name in self.skipped:
            lines.append(f"{name:<24}skipped (single-class test fold)")
        lines.append("-" * 41)
        for stat in ("mean", "min", "max", "median", "std"):
            lines.append(f"{stat:<24}{getattr(self, stat):.4f}")
        return "\n".join(lines)


def group_cv(dataset: LabeledDataset, scheme: str, classifier: str, k, *,
             n_trees: int = 1000, seed: int = 1234) -> CVReport:
    """Cross-validate a classifier over group folds.

    ``classifier`` is ``"logistic"`` or ``"forest"`` (``n_trees`` trees from ``seed``).
    The feature matrix is built once for the whole dataset and sliced per
    fold: each row depends only on its own spectrum, so the slices equal
    matrices built from the fold's training and held-out spectra, and held-out
    rows never reach the fitting step. Folds whose test labels are
    single-class are skipped with a warning.
    """
    if classifier not in ("logistic", "forest"):
        raise ValueError(f"unknown classifier {classifier!r}")
    folds = group_folds(dataset.groups, scheme)
    Z = build_matrix(dataset, k)
    names: list[str] = []
    scores: list[float] = []
    skipped: list[str] = []
    for name, train_idx, test_idx in folds:
        y_test = dataset.labels[test_idx]
        if np.all(y_test == 0) or np.all(y_test == 1):
            warnings.warn(f"fold {name!r}: test set has a single class, skipping")
            skipped.append(name)
            continue
        Z_train = Z[train_idx]
        Z_test = Z[test_idx]
        y_train = dataset.labels[train_idx]
        if classifier == "logistic":
            model = fit_logistic(Z_train, y_train)
            preds = predict_logistic(model, Z_test)[1]
        else:
            model = fit_forest(Z_train, y_train, n_trees=n_trees, seed=seed)
            preds = predict_forest(model, Z_test)
        names.append(name)
        scores.append(balanced_accuracy(y_test, preds))
    if not scores:
        raise ValueError("no usable folds: every test fold was single-class")
    return CVReport(tuple(names), tuple(scores), tuple(skipped))
