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
_THRESHOLD = 0.5  # class 1 when the probability is above this
_MAX_FEATURE = 1e100  # larger features would overflow the Newton system R'(R*w)


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Fitted logistic regression: beta[0] is the intercept; classes cut at p > 0.5."""

    beta: np.ndarray
    status: str = "converged"
    n_iter: int = 0

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64, copy=True)
        beta.flags.writeable = False
        if beta.ndim != 1 or not np.all(np.isfinite(beta)):
            raise ValueError("beta must be a finite vector")
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


def _gain(y: np.ndarray, eta: np.ndarray, p: np.ndarray, d: np.ndarray) -> float:
    """Change of the log-likelihood when the linear predictor eta moves by d.

    ``p`` is expit(eta). Each row's log(1 + e^(eta + d)) - log(1 + e^eta) is
    taken as log1p(p * expm1(d)) where |d| <= 1, so the change keeps its own
    relative precision: near the optimum a Newton step moves the likelihood
    by less than one rounding unit of its value, and a difference of two
    rounded likelihoods would only compare rounding errors.
    """
    small = np.abs(d) <= 1.0
    soft = np.where(small, np.log1p(p * np.expm1(np.where(small, d, 0.0))),
                    np.logaddexp(0.0, eta + d) - np.logaddexp(0.0, eta))
    return float(y @ d - soft.sum())


def _as_matrix(Z) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError("feature matrix must be two-dimensional")
    if not np.all(np.isfinite(Z)):
        raise ValueError("feature matrix must be finite")
    return Z


def _as_binary(y, n: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {y.shape}")
    y = y.astype(np.float64)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    return y


def fit_logistic(Z, y) -> LogisticModel:
    """Maximum-likelihood logistic regression by damped Newton iteration.

    The unpenalised log-likelihood sum(y*eta - log(1 + exp(eta))) is maximised
    with step-halving whenever a full Newton step would decrease it (the
    change is computed by ``_gain``). Iteration stops once the gradient's
    max-norm is at most ``_TOL`` or after ``_MAX_ITER`` steps; a fit whose
    final coefficients classify the training data perfectly at ``_THRESHOLD``
    (0.5) is flagged ``"separated"``, since the likelihood then has no
    interior maximum.

    Newton runs in the row space of X = [1, Z] (Hastie & Tibshirani,
    Biostatistics 2004). From beta = 0 every minimum-norm Newton step lies in
    that space, so one thin SVD X = U S V' gives the same iteration on the
    n x r matrix R = U S (r = min(n, q + 1)) with beta = V a: each step solves
    an r x r system instead of a (q + 1) x (q + 1) one, and moves the linear
    predictor by R times the step. beta is the minimum-norm solution in the
    row space of X; the stopping test uses the full gradient X'(y - p).
    Features beyond ``_MAX_FEATURE`` (1e100) in magnitude raise ValueError,
    since R'(R*w) squares them past the float range.
    """
    Z = _as_matrix(Z)
    n = Z.shape[0]
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    if Z.size and np.max(np.abs(Z)) > _MAX_FEATURE:
        raise ValueError(f"logistic features must lie within ±{_MAX_FEATURE:g}")
    y = _as_binary(y, n)
    X = np.column_stack([np.ones(n), Z])
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    R = U * s
    a = np.zeros(s.size)
    eta = np.zeros(n)
    p = _expit(eta)
    n_iter = 0
    converged = False
    for it in range(_MAX_ITER):
        resid = y - p
        if np.max(np.abs(X.T @ resid)) <= _TOL:
            converged = True
            break
        n_iter = it + 1
        w = p * (1.0 - p)
        H = R.T @ (R * w[:, None])
        step = np.linalg.lstsq(H, R.T @ resid, rcond=None)[0]
        improved = False
        for _ in range(50):
            d = R @ step
            if _gain(y, eta, p, d) >= 0.0:
                a, eta = a + step, eta + d
                p = _expit(eta)
                improved = True
                break
            step = step / 2.0
        if not improved:
            break
    # Perfect training classification means the data is separable (scaling
    # beta then pushes the likelihood to its supremum), so the "stationary
    # point" the tolerance found is saturation, not an interior maximum.
    preds = (p > _THRESHOLD).astype(np.float64)
    if np.array_equal(preds, y):
        status = "separated"
    elif converged:
        status = "converged"
    else:
        status = "max_iter"
    return LogisticModel(a @ Vt, status, n_iter)


def _as_rows(z, width: int) -> tuple[np.ndarray, bool]:
    """A feature row or matrix as a 2-D array, and whether it was one row."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != width:
        raise ValueError(f"expected a feature row or a matrix of rows of length {width}")
    return np.atleast_2d(z), z.ndim == 1


def predict_logistic(model: LogisticModel, z):
    """Probability of class 1 and the thresholded class (1 when p > 0.5).

    ``z`` is one feature row, giving a float and an int, or a matrix with one
    row per sample, giving an array of probabilities and an array of classes.
    """
    Z, one_row = _as_rows(z, model.beta.size - 1)
    coef = model.beta[1:]
    idle = (coef == 0.0) & ~np.isfinite(Z)
    if idle.any():  # a zero coefficient adds nothing, even against ±inf or nan
        Z = np.where(idle, 0.0, Z)
    p = _expit(model.beta[0] + Z @ coef)
    c = (p > _THRESHOLD).astype(np.int64)
    return (float(p[0]), int(c[0])) if one_row else (p, c)


# ---------------------------------------------------------------------------
# random forest


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


def _gini_term(m, x):
    """One side's share of a cut's weighted Gini, times the node size: m
    samples, x of them class 1, by the textbook operations in their order."""
    return m * (1.0 - (x / m) ** 2 - ((m - x) / m) ** 2)


# _GINI[m, x] = _gini_term(m, x) for sides of up to _GINI_MAX samples. A node
# that small costs numpy calls more than arithmetic, so it reads its scores
# here with two flat takes. Row 0 and x > m are never read.
_GINI_MAX = 128
_GINI = np.zeros((_GINI_MAX + 1, _GINI_MAX + 1))
_GINI[1:] = _gini_term(np.arange(1, _GINI_MAX + 1)[:, None], np.arange(_GINI_MAX + 1))
_GINI.flags.writeable = False
_GINI_ROWS = np.arange(_GINI_MAX + 1) * (_GINI_MAX + 1)  # flat offset of row m


def _best_split(XT: np.ndarray, y: np.ndarray, idx: np.ndarray,
                feats) -> tuple[float, int, float, np.ndarray, int, int] | None:
    """Lowest weighted-Gini split of the rows ``idx`` over the given (sorted) features.

    ``XT`` is the training matrix transposed (one row per feature) and ``y``
    the int64 labels. All features are scored at once: row j holds feature
    ``feats[j]`` sorted over the node's samples, and column c the cut that
    leaves c + 1 samples on the left. A cut's score is
    (_gini_term(left) + _gini_term(right)) / n, read from the table
    ``_GINI`` when the node has at most ``_GINI_MAX`` rows, so every score
    has the textbook formula's bits either way. Ties go to the smaller
    feature index, then the smaller threshold. Thresholds follow the rule in
    :func:`fit_forest`.

    Returns None when every feature is constant on the node, else
    ``(score, feature, threshold, order, i, l1)``: the winning feature's
    stable sort order of ``idx``, whose first i + 1 entries are the rows at
    or below the threshold, and the number of class-1 rows among them.
    """
    n = idx.size
    xs = XT.take(feats, 0).take(idx, 1)
    order = xs.argsort(1, kind="stable")
    xv = xs[np.arange(len(feats))[:, None], order]
    ones = y.take(idx).take(order).cumsum(1)
    l1 = ones[:, :-1]  # class-1 rows left of each cut; every row ends at c1
    c1 = int(ones[0, -1])
    if n <= _GINI_MAX:
        # flat index of (cut, l1); (rest, c1 - l1) is its mirror about (n, c1)
        left = l1 + _GINI_ROWS[1:n]
        g = _GINI.take(left)
        g += _GINI.take(_GINI_ROWS[n] + c1 - left)
    else:
        cut = np.arange(1, n)
        g = _gini_term(cut, l1)
        g += _gini_term(n - cut, c1 - l1)
    g /= n
    np.putmask(g, xv[:, 1:] == xv[:, :-1], np.inf)
    # first minimum in row-major order: smallest feature, then smallest cut
    j, i = divmod(int(g.argmin()), n - 1)
    score = float(g[j, i])
    if score == np.inf:
        return None
    a, b = float(xv[j, i]), float(xv[j, i + 1])
    mid = (a + b) / 2.0  # Python floats: an overflow gives inf, not a warning
    thr = mid if a <= mid < b else a
    return score, int(feats[j]), thr, order[j], i, int(ones[j, i])


def _build_tree(XT: np.ndarray, y: np.ndarray, start: np.ndarray,
                rng: np.random.Generator) -> TreeNode:
    # Depth-first, left child first, so the per-split candidate draws happen
    # in a fixed order for a given seed. Each node carries its class counts,
    # and its children are taken from the winning feature's sort order; the
    # split never depends on the order of a node's rows.
    q = XT.shape[0]
    n_cand = math.ceil(math.sqrt(q))
    root = TreeNode()
    c1 = int(y.take(start).sum())
    stack = [(root, start, start.size - c1, c1)]
    while stack:
        node, idx, c0, c1 = stack.pop()
        if c0 == 0 or c1 == 0:
            node.counts = (c0, c1)
            continue
        cand = np.sort(rng.choice(q, size=n_cand, replace=False))
        found = _best_split(XT, y, idx, cand)
        if found is None:
            # The drawn features are constant on this node; an impure node
            # still splits if any other feature can separate it.
            rest = np.setdiff1d(np.arange(q), cand)
            found = _best_split(XT, y, idx, rest) if rest.size else None
        if found is None:
            node.counts = (c0, c1)
            continue
        _, node.feature, node.threshold, order, i, l1 = found
        l0 = i + 1 - l1
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.right, idx.take(order[i + 1:]), c0 - l0, c1 - l1))
        stack.append((node.left, idx.take(order[:i + 1]), l0, l1))
    return root


def fit_forest(Z, y, *, n_trees: int = 1000, seed: int = 1234,
               bootstrap: bool = True) -> ForestModel:
    """Random forest of CART trees with Breiman's (2001) fixed rules.

    Each tree sees a bootstrap sample of size n drawn with replacement (the
    whole training set when ``bootstrap`` is false) and, at every split,
    ceil(sqrt(q)) candidate features drawn without replacement from its own
    seeded stream. A node splits at its lowest weighted-Gini cut until it is
    pure; when every candidate is constant on the node, the other features
    are searched instead, so a leaf is impure only when no feature separates
    its rows. A cut between consecutive values a < b sits at their midpoint,
    or at a when the midpoint rounds up to b or overflows, so neither child
    is empty. ``Z`` must be finite.
    """
    Z = _as_matrix(Z)
    n, q = Z.shape
    if n == 0 or q == 0:
        raise ValueError("cannot fit on an empty dataset")
    yi = _as_binary(y, n).astype(np.int64)
    if n_trees < 1:
        raise ValueError("n_trees must be positive")
    XT = np.ascontiguousarray(Z.T)
    trees = []
    for child_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seed)
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(_build_tree(XT, yi, idx, rng))
    return ForestModel(tuple(trees), q)


def predict_forest(model: ForestModel, z):
    """Majority vote over the trees; an exact tie goes to class 0.

    ``z`` is one feature row, giving an int, or a matrix with one row per
    sample, giving an array of classes. Each row walks down each tree, left
    when its value is at most the node's threshold (so ``nan`` goes right),
    to a leaf that votes 1 when it holds more class-1 than class-0 samples.
    """
    Z, one_row = _as_rows(z, model.n_features)
    ones = np.zeros(Z.shape[0], dtype=np.int64)
    for i, row in enumerate(Z.tolist()):
        for node in model.trees:
            while node.counts is None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            ones[i] += node.counts[1] > node.counts[0]
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
    """Per-fold balanced accuracies with summary statistics (std uses n-1).

    ``fit_status`` holds each scored fold's logistic status (empty for the
    forest).
    """

    fold_names: tuple[str, ...]
    fold_scores: tuple[float, ...]
    skipped: tuple[str, ...] = ()
    fit_status: tuple[str, ...] = ()
    mean: float = field(init=False, default=0.0)
    min: float = field(init=False, default=0.0)
    max: float = field(init=False, default=0.0)
    median: float = field(init=False, default=0.0)
    std: float = field(init=False, default=0.0)

    def __post_init__(self):
        if len(self.fold_names) != len(self.fold_scores) or not self.fold_scores:
            raise ValueError("need one name per score and at least one fold")
        if self.fit_status and len(self.fit_status) != len(self.fold_scores):
            raise ValueError("need one fit status per scored fold, or none")
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
        if self.fit_status:
            separated = self.fit_status.count("separated")
            lines.append(f"{'separated folds':<24}{separated} of {len(self.fit_status)}")
        return "\n".join(lines)


def group_cv(dataset: LabeledDataset, scheme: str, classifier: str, k, *,
             n_trees: int = 1000, seed: int = 1234) -> CVReport:
    """Cross-validate a classifier over group folds.

    ``classifier`` is ``"logistic"`` or ``"forest"`` (``n_trees`` trees from ``seed``).
    The feature matrix is built once for the whole dataset and sliced per
    fold: each row depends only on its own spectrum, so the slices equal
    matrices built from the fold's training and held-out spectra, and held-out
    rows never reach the fitting step. Folds whose test labels are
    single-class are skipped with a warning. For the logistic classifier the
    report carries each scored fold's fit status.
    """
    if classifier not in ("logistic", "forest"):
        raise ValueError(f"unknown classifier {classifier!r}")
    folds = group_folds(dataset.groups, scheme)
    Z = build_matrix(dataset, k)
    names: list[str] = []
    scores: list[float] = []
    skipped: list[str] = []
    fit_status: list[str] = []
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
            fit_status.append(model.status)
        else:
            model = fit_forest(Z_train, y_train, n_trees=n_trees, seed=seed)
            preds = predict_forest(model, Z_test)
        names.append(name)
        scores.append(balanced_accuracy(y_test, preds))
    if not scores:
        raise ValueError("no usable folds: every test fold was single-class")
    return CVReport(tuple(names), tuple(scores), tuple(skipped), tuple(fit_status))
