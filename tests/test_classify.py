"""Logistic regression, random forest, balanced accuracy, and group CV."""

from __future__ import annotations

import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import run_fresh, two_class_dataset
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _two_class_groups

from topopeaks import (
    CVReport,
    LabeledDataset,
    NoiseModel,
    SimulationSpec,
    add_noise,
    balanced_accuracy,
    build_matrix,
    fit_forest,
    fit_logistic,
    generate_ground_truth,
    group_cv,
    group_folds,
    predict_forest,
    predict_logistic,
)
from topopeaks import classify as classify_module
from topopeaks.classify import (
    ForestModel,
    LogisticModel,
    TreeNode,
    _GINI,
    _GINI_MAX,
    _TOL,
    _best_split,
    _expit,
    _gain,
    _loglik,
    _score,
)


def reference_best_split(XT, y, idx, feats):
    """The split search one feature at a time, as a reference for the 2-D one."""
    n = idx.size
    best = None
    for f in feats:
        xs = XT[f, idx]
        order = np.argsort(xs, kind="stable")
        xv = xs[order]
        yv = y[idx][order]
        cut = np.flatnonzero(xv[1:] != xv[:-1]) + 1  # candidate left-side sizes
        if cut.size == 0:
            continue
        ones = np.cumsum(yv)
        l1 = ones[cut - 1]
        l0 = cut - l1
        r1 = ones[-1] - l1
        r0 = (n - cut) - r1
        gl = 1.0 - (l1 / cut) ** 2 - (l0 / cut) ** 2
        gr = 1.0 - (r1 / (n - cut)) ** 2 - (r0 / (n - cut)) ** 2
        g = (cut * gl + (n - cut) * gr) / n
        i = int(np.argmin(g))  # first minimum: smallest threshold wins ties
        if best is None or g[i] < best[0]:
            a, b = float(xv[cut[i] - 1]), float(xv[cut[i]])
            thr = (a + b) / 2.0
            best = (float(g[i]), int(f), thr if a <= thr < b else a,
                    order, int(cut[i] - 1), int(l1[i]))
    return best


def split_bits(found):
    """A split with its score and threshold as exact bits (so -0.0 != 0.0)."""
    if found is None:
        return None
    score, f, thr, order, i, l1 = found
    return np.float64(score).tobytes(), f, np.float64(thr).tobytes(), order.tolist(), i, l1


def reference_build_tree(X, y, start, rng):
    """Tree growth that routes each node's rows by ``X[idx, f] <= thr`` and
    counts its classes with ``y[idx].sum()``, as a reference for the carried
    child rows and counts."""
    q = X.shape[1]
    n_cand = math.ceil(math.sqrt(q))
    root = TreeNode()
    stack = [(root, start)]
    while stack:
        node, idx = stack.pop()
        c1 = int(y[idx].sum())
        c0 = idx.size - c1
        if c0 == 0 or c1 == 0:
            node.counts = (c0, c1)
            continue
        cand = np.sort(rng.choice(q, size=n_cand, replace=False))
        found = reference_best_split(X.T, y, idx, cand)
        if found is None:
            rest = np.setdiff1d(np.arange(q), cand)
            found = reference_best_split(X.T, y, idx, rest) if rest.size else None
        if found is None:
            node.counts = (c0, c1)
            continue
        _, f, thr = found[:3]
        mask = X[idx, f] <= thr
        node.feature = f
        node.threshold = thr
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.right, idx[~mask]))
        stack.append((node.left, idx[mask]))
    return root


def reference_fit_forest(Z, y, *, n_trees, seed, bootstrap):
    """``fit_forest``'s seeding and bootstrap over :func:`reference_build_tree`."""
    n, q = Z.shape
    trees = []
    for child_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seed)
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(reference_build_tree(Z, y, idx, rng))
    return ForestModel(tuple(trees), q)


def reference_predict_forest(model, z):
    """Node-by-node routing: every node splits the row indices that reach it."""
    Z = np.atleast_2d(np.asarray(z, dtype=np.float64))
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
    return int(preds[0]) if np.ndim(z) == 1 else preds


def split_nodes(model):
    """(feature, threshold) of every split node of every tree."""
    out, stack = [], list(model.trees)
    while stack:
        node = stack.pop()
        if node.counts is None:
            out.append((node.feature, node.threshold))
            stack += [node.left, node.right]
    return out


def tied_problem(rng, n, q):
    """Rounded (tied) features with a few constant columns and noisy labels."""
    Z = np.round(rng.normal(size=(n, q)) * 2.0) / 2.0
    Z[:, rng.choice(q, size=q // 4, replace=False)] = rng.normal()
    y = (Z[:, 0] + Z[:, -1] + rng.normal(size=n) > 0).astype(int)
    return Z, y


def reference_fit_logistic(Z, y):
    """Damped Newton with a dense (q+1) x (q+1) lstsq per step, as a reference.

    Step-halving compares two rounded log-likelihoods.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = Z.shape[0]
    X = np.column_stack([np.ones(n), Z])
    beta = np.zeros(X.shape[1])
    ll = _loglik(X, y, beta)
    n_iter = 0
    converged = False
    for it in range(200):
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
    preds = (_expit(X @ beta) > 0.5).astype(np.float64)
    if np.array_equal(preds, y):
        status = "separated"
    elif converged:
        status = "converged"
    else:
        status = "max_iter"
    return LogisticModel(beta, status, n_iter)


def grad_max(Z, y, beta):
    """max|X'(y - p)| at beta, X being Z with an intercept column."""
    X = np.column_stack([np.ones(len(y)), Z])
    return float(np.max(np.abs(_score(X, np.asarray(y, dtype=np.float64), beta))))


def logo_cohort(seed, n=120, q=500, n_groups=4):
    """The benchmark's classify-logo cohort: 12 shared peaks and one class peak."""
    rng = np.random.default_rng(seed)
    x = np.arange(q, dtype=np.float64)
    centers = np.append(np.linspace(20, q - 20, 12).round(), q // 2 + 7)
    labels = np.arange(n) % 2
    heights = np.column_stack([3.0 + rng.normal(0.0, 0.5, (n, 12)),
                               np.where(labels == 1, 6.0, 2.0) + rng.normal(0.0, 0.3, n)])
    shapes = np.exp(-0.5 * ((x[None, :] - centers[:, None]) / 1.5) ** 2)
    spectra = np.maximum(heights @ shapes + rng.normal(0.0, 0.01, (n, q)), 0.0)
    groups = tuple(f"p{i * n_groups // n}" for i in range(n))
    return LabeledDataset(np.linspace(100.0, 1100.0, q), spectra, labels, groups)


# Largest relative beta difference (max-abs, against the reference's max-abs
# beta) measured on wide problems: 8.1e-10 on classify-logo folds (cohort
# seeds 1, 2, 3, 5) and 3.6e-9 on the acceptance cohort's folds.
BETA_RTOL = 1e-8


def fd_gradient(X, y, beta, h=1e-6):
    g = np.zeros_like(beta)
    for j in range(beta.size):
        up, dn = beta.copy(), beta.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (_loglik(X, y, up) - _loglik(X, y, dn)) / (2 * h)
    return g


class TestFitLogistic:
    def test_zero_column_gives_zero_beta(self):
        m = fit_logistic(np.zeros((4, 1)), np.array([0, 1, 0, 1]))
        np.testing.assert_array_equal(m.beta, [0.0, 0.0])
        assert m.status == "converged"

    def test_intercept_only_closed_form(self):
        m = fit_logistic(np.zeros((4, 0)), np.array([1, 1, 1, 0]))
        assert abs(m.beta[0] - math.log(3.0)) <= 1e-6
        assert m.status == "converged"

    def test_separable_data_flagged(self):
        Z = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        m = fit_logistic(Z, y)
        assert m.status == "separated"
        assert [predict_logistic(m, z)[1] for z in Z] == [0, 0, 1, 1]

    def test_single_class_accepted_and_flagged(self):
        m = fit_logistic(np.zeros((3, 1)), np.array([1, 1, 1]))
        assert m.status == "separated"

    def test_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            n = int(rng.integers(8, 40))
            X = rng.normal(size=(n, 3))
            y = (rng.uniform(size=n) < 0.5).astype(int)
            m = fit_logistic(X, y)
            if m.status != "converged":
                continue
            full = np.column_stack([np.ones(n), X])
            g = _score(full, y.astype(float), m.beta)
            assert np.max(np.abs(g)) <= 1e-6

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            n, q = int(rng.integers(4, 20)), int(rng.integers(1, 5))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, q))])
            y = (rng.uniform(size=n) < 0.5).astype(float)
            beta = rng.normal(scale=0.5, size=q + 1)
            g = _score(X, y, beta)
            fd = fd_gradient(X, y, beta)
            assert np.max(np.abs(g - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_full_simulator_width_fits_in_seconds(self):
        # 120 pixel spectra of a simulator image on its 3466-value axis: with a
        # dense (q+1)^2 solve per Newton step this fit took minutes.
        image, truth = generate_ground_truth(SimulationSpec(size=11, seed=3))
        noisy = add_noise(image, NoiseModel("gaussian", 0.1, seed=4))
        ds = LabeledDataset(noisy.mz, noisy.spectra[:120],
                            truth.ravel()[:120].astype(int), ("g",) * 120)
        Z = build_matrix(ds, 25)
        assert Z.shape == (120, 3466)
        start = time.perf_counter()
        m = fit_logistic(Z, ds.labels)
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"took {elapsed:.1f}s"
        assert m.status == "separated"
        assert np.array_equal(predict_logistic(m, Z)[1], ds.labels)

    def test_accepts_feature_matrix_object(self):
        ds = two_class_dataset(n=16, q=30, seed=1)
        m = fit_logistic(build_matrix(ds, 100), ds.labels)
        assert m.beta.size == 31

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_logistic(np.zeros((0, 2)), np.zeros(0))

    def test_huge_features_rejected_naming_the_limit(self):
        # X X' and R'(R*w) would square 1e200 past the float range and the fit fail
        with pytest.raises(ValueError, match=r"within ±1e\+100"):
            fit_logistic(np.array([[1e200], [2e200], [3e200], [4e200]]), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match=r"within ±1e\+100"):
            fit_logistic(np.array([[0.0, 1.0], [-2e100, 1.0]]), np.array([0, 1]))

    def test_label_values_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            fit_logistic(np.zeros((2, 1)), np.array([0, 3]))
        # both fits and LabeledDataset share one check: fractions are rejected
        for fit in (fit_logistic, fit_forest):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                fit(np.arange(3.0)[:, None], [0.5, 1.9, -0.7])
            with pytest.raises(ValueError, match=r"expected 3 labels, got shape \(2,\)"):
                fit(np.arange(3.0)[:, None], [0, 1])


def assert_same_fit(Z, y):
    """Row-space fit equals the dense reference: status, steps, predictions, beta."""
    ref = reference_fit_logistic(Z, y)
    new = fit_logistic(Z, y)
    assert (new.status, new.n_iter) == (ref.status, ref.n_iter)
    np.testing.assert_array_equal(predict_logistic(new, Z)[1], predict_logistic(ref, Z)[1])
    scale = np.max(np.abs(ref.beta))
    assert np.max(np.abs(new.beta - ref.beta)) <= BETA_RTOL * scale
    return new, ref


class TestRowSpaceNewton:
    """fit_logistic against the dense-lstsq Newton it replaced."""

    def test_classify_logo_folds(self):
        ds = logo_cohort(seed=1)
        Z = build_matrix(ds, 30)
        for _, train, test in group_folds(ds.groups, "leave-one-group-out"):
            new, ref = assert_same_fit(Z[train], ds.labels[train])
            assert new.status == "separated" and new.n_iter == 23
            np.testing.assert_array_equal(predict_logistic(new, Z[test])[1],
                                          predict_logistic(ref, Z[test])[1])

    def test_acceptance_cohort_folds(self):
        ds = _two_class_groups()
        Z = build_matrix(ds, 50.0)
        assert Z.shape[1] + 1 > Z.shape[0] * 3 // 4  # wider than each training set
        for _, train, test in group_folds(ds.groups, "leave-one-group-out"):
            new, ref = assert_same_fit(Z[train], ds.labels[train])
            np.testing.assert_array_equal(predict_logistic(new, Z[test])[1],
                                          predict_logistic(ref, Z[test])[1])

    def test_random_wide_problems(self):
        rng = np.random.default_rng(60)
        for i in range(30):
            n = int(rng.integers(5, 60))
            Z = rng.normal(size=(n, int(rng.integers(n, 2 * n + 5))))
            # half with a label carried by one feature, half with coin flips;
            # q + 1 > n separates both
            y = (Z[:, 0] > 0 if i % 2 else rng.uniform(size=n) < 0.5).astype(int)
            new, _ = assert_same_fit(Z, y)
            assert new.status == "separated"

    def test_narrow_and_rank_deficient_problems_no_worse(self):
        # Where the two fits take different paths (the reference's
        # step-halving compares log-likelihoods that agree to their last
        # bits), the new fit ends with the same predictions and at least as
        # small a gradient, or both are within the stopping tolerance.
        rng = np.random.default_rng(61)
        for i in range(120):
            n = int(rng.integers(5, 80))
            kind = i % 3
            if kind == 0:  # full rank, noisy labels
                Z = rng.normal(size=(n, int(rng.integers(1, max(2, n // 2)))))
                y = Z[:, 0] + rng.normal(size=n) > 0
            elif kind == 1:  # a doubled column and a zero column
                Z = rng.normal(size=(n, int(rng.integers(2, 12))))
                Z[:, 1] = 2.0 * Z[:, 0]
                Z[:, -1] = 0.0
                y = rng.uniform(size=n) < 0.5
            else:  # every column zero
                Z = np.zeros((n, int(rng.integers(1, 12))))
                y = rng.uniform(size=n) < 0.5
            y = y.astype(int)
            ref = reference_fit_logistic(Z, y)
            new = fit_logistic(Z, y)
            np.testing.assert_array_equal(predict_logistic(new, Z)[1],
                                          predict_logistic(ref, Z)[1])
            if (new.status, new.n_iter) != (ref.status, ref.n_iter):
                assert new.status != "max_iter"
                assert grad_max(Z, y, new.beta) <= max(grad_max(Z, y, ref.beta), _TOL)

    def test_every_intercept_only_problem_converges(self):
        # The optimum is logit(mean(y)). The reference stalled at max_iter
        # with the gradient still above the tolerance on 41 of the 1,653
        # problems with n < 60 (e.g. n=22, k=10): its rounded log-likelihoods
        # no longer told the Newton step apart from staying put.
        for n in range(2, 41):
            for k in range(1, n):
                y = np.array([1] * k + [0] * (n - k))
                Z = np.zeros((n, 1))
                m = fit_logistic(Z, y)
                assert m.status == "converged" and m.n_iter <= 8, (n, k)
                assert grad_max(Z, y, m.beta) <= _TOL
                assert m.beta[0] == pytest.approx(math.log(k / (n - k)), abs=1e-7)
                assert m.beta[1] == 0.0


def wide_design(rng, scale, held_out=5):
    """|N(0,1)| * scale features with q + 1 > n, labels of either class, and held-out rows."""
    n = int(rng.integers(2, 40))
    Z = np.abs(rng.normal(size=(n + held_out, int(rng.integers(n, 2 * n + 5))))) * scale
    return Z[:n], (rng.uniform(size=n) < 0.5).astype(int), Z[n:]


def closed_form_fit(monkeypatch, Z, y):
    """fit_logistic with the SVD route refused, so it must take the closed form."""
    def refuse(*args, **kwargs):
        raise AssertionError("the SVD route was taken")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", refuse)
        m.setattr(np.linalg, "lstsq", refuse)
        return fit_logistic(Z, y)


def beta_gap(beta, ref):
    """Largest coefficient difference, relative to ``ref``'s largest coefficient."""
    return np.max(np.abs(beta - ref)) / np.max(np.abs(ref))


def direction_gap(beta, ref):
    """Largest coefficient difference once both are scaled to unit length."""
    return np.max(np.abs(beta / np.linalg.norm(beta) - ref / np.linalg.norm(ref)))


def recurrence(n_iter):
    """e after n_iter full Newton steps on a full-row-rank design."""
    e = 0.0
    for _ in range(n_iter):
        e += 1.0 + math.exp(-e)
    return e


class TestClosedForm:
    """Wide full-row-rank fits: the scalar recurrence against the Newton loops."""

    def test_loop_only_where_the_closed_form_fails(self, monkeypatch):
        rng = np.random.default_rng(70)
        Z = rng.normal(size=(6, 10))
        y = np.array([0, 1, 0, 1, 1, 0])
        for wide in (Z, Z[:, :5]):  # q + 1 > n, and a square X
            assert closed_form_fit(monkeypatch, wide, y).status == "separated"
        equal_rows = Z.copy()
        equal_rows[1] = equal_rows[0]
        tall = rng.normal(size=(12, 3))
        for loop_Z, loop_y in ((equal_rows, y), (np.zeros((6, 10)), y), (tall, np.arange(12) % 2)):
            with pytest.raises(AssertionError, match="SVD route"):
                closed_form_fit(monkeypatch, loop_Z, loop_y)
        # a full step that _gain scores below 0 is left to the loop's halving
        monkeypatch.setattr(classify_module, "_gain", lambda y, eta, p, d: -1.0)
        with pytest.raises(AssertionError, match="SVD route"):
            closed_form_fit(monkeypatch, Z, y)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
    def test_matches_the_newton_loops(self, monkeypatch, scale):
        # A loop whose rounded step fails _gain halves it and ends at a
        # smaller e: beta's length then differs (by 1.5e-2 on a 38 x 48
        # design at 1e5 against the dense reference), its direction does not.
        rng = np.random.default_rng(71)
        for _ in range(30):
            Z, y, held_out = wide_design(rng, scale)
            ref = reference_fit_logistic(Z, y)
            with monkeypatch.context() as m:
                m.setattr(classify_module, "_fit_interpolating", lambda Z, y: None)
                loop = fit_logistic(Z, y)
            new = closed_form_fit(monkeypatch, Z, y)
            for other in (ref, loop):
                assert (new.status, new.n_iter) == (other.status, other.n_iter)
                for rows in (Z, held_out):
                    np.testing.assert_array_equal(predict_logistic(new, rows)[1],
                                                  predict_logistic(other, rows)[1])
                assert direction_gap(new.beta, other.beta) <= BETA_RTOL

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5, 1e10, 1e99])
    def test_is_the_scaled_minimum_norm_interpolator(self, monkeypatch, scale):
        # at 1e99, X X' holds entries near 1e200, short of the float range
        rng = np.random.default_rng(72)
        for _ in range(30):
            Z, y, held_out = wide_design(rng, scale)
            m = closed_form_fit(monkeypatch, Z, y)
            X = np.column_stack([np.ones(len(y)), Z])
            ref = recurrence(m.n_iter) * (np.linalg.pinv(X) @ (2.0 * y - 1.0))
            assert m.status == "separated"
            assert beta_gap(m.beta, ref) <= 1e-9
            np.testing.assert_array_equal(predict_logistic(m, held_out)[1],
                                          predict_logistic(LogisticModel(ref), held_out)[1])

    def test_one_sample_and_one_class(self, monkeypatch):
        rng = np.random.default_rng(74)
        cases = [(np.zeros((1, 0)), [1]), (rng.normal(size=(1, 4)), [0]),
                 (rng.normal(size=(5, 9)), [1] * 5), (rng.normal(size=(5, 9)), [0] * 5)]
        for Z, y in cases:
            ref = reference_fit_logistic(Z, y)
            new = closed_form_fit(monkeypatch, Z, y)
            assert (new.status, new.n_iter) == ("separated", ref.n_iter)
            assert beta_gap(new.beta, ref.beta) <= BETA_RTOL


class TestGain:
    def test_matches_loglik_difference(self):
        rng = np.random.default_rng(70)
        for scale in (1e-3, 0.5, 3.0, 40.0):
            X = np.column_stack([np.ones(30), rng.normal(size=(30, 4))])
            y = (rng.uniform(size=30) < 0.5).astype(float)
            beta = rng.normal(size=5)
            step = rng.normal(scale=scale, size=5)
            eta = X @ beta
            want = _loglik(X, y, beta + step) - _loglik(X, y, beta)
            got = _gain(y, eta, _expit(eta), X @ step)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_sign_of_a_step_below_loglik_resolution(self):
        # At the optimum of an intercept-only fit, moving the intercept by
        # +-h changes the log-likelihood by about -n p (1 - p) h^2 / 2, far
        # below one rounding unit of its value.
        y = np.array([1.0] * 7 + [0.0] * 13)
        eta = np.full(20, math.log(7 / 13))
        p = _expit(eta)
        for h in (1e-7, -1e-7, 1e-6):
            want = -20 * p[0] * (1 - p[0]) * h * h / 2
            assert _gain(y, eta, p, np.full(20, h)) == pytest.approx(want, rel=1e-6)


class TestPredictLogistic:
    def test_zero_beta_is_class_zero(self):
        m = LogisticModel(np.zeros(3))
        p, c = predict_logistic(m, np.array([4.0, -2.0]))
        assert p == 0.5 and c == 0  # strict inequality at the threshold

    def test_intercept_ln3(self):
        m = LogisticModel(np.array([math.log(3.0), 0.0]))
        p, c = predict_logistic(m, np.array([9.0]))
        assert abs(p - 0.75) < 1e-12 and c == 1

    def test_saturated_negative(self):
        m = LogisticModel(np.array([-100.0, 0.0]))
        p, c = predict_logistic(m, np.array([1.0]))
        assert p < 1e-40 and c == 0

    def test_row_length_checked(self):
        with pytest.raises(ValueError, match="length 2"):
            predict_logistic(LogisticModel(np.zeros(3)), np.array([1.0]))
        with pytest.raises(ValueError, match="length 2"):
            predict_logistic(LogisticModel(np.zeros(3)), np.zeros((4, 3)))

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(56)
        Z = rng.normal(size=(40, 7))
        y = (Z[:, 2] + rng.normal(size=40) > 0).astype(int)
        m = fit_logistic(Z, y)
        p, c = predict_logistic(m, Z)
        assert p.shape == c.shape == (40,)
        rows = [predict_logistic(m, z) for z in Z]
        assert c.tolist() == [r[1] for r in rows]
        # BLAS may round a one-row product apart from a many-row one
        np.testing.assert_allclose(p, [r[0] for r in rows], rtol=1e-12, atol=0)

    def test_non_finite_rows_accepted(self):
        # only the fits reject non-finite features; a row still gets a score
        m = LogisticModel(np.array([0.5, 2.0, -1.0]))
        p, c = predict_logistic(m, np.array([[np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0]]))
        assert math.isnan(p[0]) and p[1:].tolist() == [1.0, 0.0]
        assert c.tolist() == [0, 1, 0]

    def test_zero_coefficient_ignores_non_finite_feature(self):
        # 0 * inf would make p nan (and warn); a zero coefficient adds nothing
        m = LogisticModel(np.array([0.5, 0.0, -1.0]))
        Z = np.array([[np.inf, 1.0], [-np.inf, 1.0], [np.nan, 1.0], [3.0, 1.0]])
        p, c = predict_logistic(m, Z)
        assert p.tolist() == [predict_logistic(m, [0.0, 1.0])[0]] * 4
        assert c.tolist() == [0, 0, 0, 0]
        assert predict_logistic(m, [np.inf, 1.0]) == predict_logistic(m, [0.0, 1.0])

    def test_column_rescale_invariance(self):
        # scale a column by 4 and its coefficient by 1/4: identical scores
        rng = np.random.default_rng(52)
        Z = rng.normal(size=(30, 3)) ** 2
        y = (Z[:, 1] + rng.normal(scale=2.0, size=30) > 1.0).astype(int)
        m = fit_logistic(Z, y)
        beta2 = m.beta.copy()
        beta2[2] /= 4.0
        m2 = LogisticModel(beta2, m.status, m.n_iter)
        for row in Z[:5]:
            scaled = row.copy()
            scaled[1] *= 4.0
            assert predict_logistic(m2, scaled) == predict_logistic(m, row)


class TestFitForest:
    def test_four_point_line(self):
        Z = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        m = fit_forest(Z, y, n_trees=1, bootstrap=False)
        root = m.trees[0]
        assert root.feature == 0
        assert root.threshold == 1.5
        assert [predict_forest(m, z) for z in Z] == [0, 0, 1, 1]

    def test_default_mtry_is_ceil_sqrt_q(self, monkeypatch):
        # Breiman's mtry: every split searches ceil(sqrt(q)) drawn features;
        # no column is constant, so the search never falls back to the rest
        rng = np.random.default_rng(2)
        sizes = []

        def spy(XT, y, idx, feats):
            sizes.append(len(feats))
            return _best_split(XT, y, idx, feats)

        monkeypatch.setattr(classify_module, "_best_split", spy)
        for q, n_cand in ((1, 1), (2, 2), (5, 3), (9, 3), (10, 4), (17, 5)):
            Z = rng.normal(size=(20, q))
            y = (Z[:, 0] + rng.normal(size=20) > 0).astype(int)
            sizes.clear()
            fit_forest(Z, y, n_trees=3)
            assert sizes and set(sizes) == {n_cand}, q

    def test_negative_seed_is_refused(self):
        Z = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            fit_forest(Z, [0, 0, 1, 1], n_trees=1, seed=-1)

    def test_same_seed_same_model(self):
        ds = two_class_dataset(n=20, q=25, seed=3)
        Z = build_matrix(ds, 50)
        a = fit_forest(Z, ds.labels, n_trees=12, seed=99)
        b = fit_forest(Z, ds.labels, n_trees=12, seed=99)
        assert a == b

    def test_different_seed_different_bootstraps(self):
        ds = two_class_dataset(n=20, q=25, seed=3)
        Z = build_matrix(ds, 50)
        a = fit_forest(Z, ds.labels, n_trees=12, seed=99)
        b = fit_forest(Z, ds.labels, n_trees=12, seed=100)
        assert a != b

    def test_training_accuracy_without_bootstrap(self):
        # leaves grown to purity from the full sample per tree: every training
        # row ends in a pure leaf unless two identical rows carry different labels
        rng = np.random.default_rng(53)
        Z = rng.normal(size=(40, 6))
        y = (rng.uniform(size=40) < 0.5).astype(int)
        m = fit_forest(Z, y, n_trees=5, bootstrap=False)
        preds = [predict_forest(m, row) for row in Z]
        assert preds == y.tolist()

    def test_duplicated_rescaled_column_is_never_preferred(self):
        # the copy ties every split of the original column; ties resolve to
        # the smaller feature index, so the trees come out identical (with
        # one and two columns, ceil(sqrt(q)) = q and every split sees all)
        rng = np.random.default_rng(54)
        Z = rng.normal(size=(30, 1)) ** 2
        y = (Z[:, 0] + rng.normal(scale=0.5, size=30) > np.median(Z[:, 0])).astype(int)
        Z_dup = np.column_stack([Z, 0.5 * Z[:, 0]])
        a = fit_forest(Z, y, n_trees=3, bootstrap=False, seed=7)
        b = fit_forest(Z_dup, y, n_trees=3, bootstrap=False, seed=7)
        assert split_nodes(a)  # the trees have splits to compare
        assert a.trees == b.trees
        for row in rng.normal(size=(10, 1)) ** 2:
            ext = np.append(row, 0.5 * row[0])
            assert predict_forest(a, row) == predict_forest(b, ext)

    def test_threshold_separates_the_node(self):
        # (a + b) / 2 rounds up to b between adjacent floats and overflows to
        # +-inf near the float range's ends; the cut then falls back to a, so
        # neither child is empty and the fit ends. Run in a subprocess so a
        # fit that keeps re-splitting one node fails on the timeout.
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from topopeaks import fit_forest\n"
            "cases = [([[0.0], [1 + 2**-52], [1 + 2**-51]], [0, 0, 1]),\n"
            "         ([[1e308], [1.7e308], [0.0], [1.0]], [0, 1, 0, 0]),\n"
            "         ([[-1e308], [-1.7e308], [0.0], [1.0]], [0, 1, 0, 0]),\n"
            "         ([[5e-324], [1e-323], [0.0]], [0, 1, 0])]\n"
            "out = []\n"
            "for Z, y in cases:\n"
            "    m = fit_forest(np.array(Z), np.array(y), n_trees=1, bootstrap=False)\n"
            "    root = m.trees[0]\n"
            "    out.append([root.threshold, root.left.counts, root.right.counts])\n"
            "json.dump(out, sys.stdout)\n"
        )
        assert run_fresh(script, flags=("-W", "error"), timeout=20) == [
            [1 + 2**-52, [2, 0], [0, 1]],
            [1e308, [3, 0], [0, 1]],
            [-1.7e308, [0, 1], [3, 0]],
            [5e-324, [2, 0], [0, 1]],
        ]

    def test_inseparable_rows_end_in_one_impure_leaf(self):
        # every feature is constant: the drawn candidates and the rest all
        # fail to split, so each tree is one leaf holding the whole sample
        Z = np.ones((7, 4))
        y = np.array([0, 1, 1, 0, 1, 0, 1])
        m = fit_forest(Z, y, n_trees=4, bootstrap=False)
        assert [t.counts for t in m.trees] == [(3, 4)] * 4
        assert predict_forest(m, Z).tolist() == [1] * 7

    def test_non_finite_features_rejected(self):
        y = np.array([0, 0, 0, 1])
        for first in (0.0, -1.0):  # a negative feature is accepted, a nan beside it is not
            for bad in (np.nan, np.inf, -np.inf):
                Z = np.array([[first], [1.0], [2.0], [bad]])
                for fit in (fit_logistic, fit_forest):
                    with pytest.raises(ValueError, match="feature matrix must be finite"):
                        fit(Z, y)

    def test_parameter_validation(self):
        Z = np.zeros((2, 2))
        y = np.array([0, 1])
        with pytest.raises(ValueError, match="n_trees"):
            fit_forest(Z, y, n_trees=0)
        with pytest.raises(ValueError, match="empty"):
            fit_forest(np.zeros((0, 2)), np.zeros(0))

    def test_model_is_unhashable(self):
        m = fit_forest(np.array([[0.0], [1.0]]), np.array([0, 1]), n_trees=1)
        with pytest.raises(TypeError):
            hash(m)

    def test_large_node_memory_is_linear(self):
        # the Gini table is capped, not sized by n: a 20,000-row root scores
        # its cuts directly instead of through an n x n table (6.4 GB)
        Z = np.round(np.random.default_rng(62).normal(size=(20_000, 2)), 1)
        y = (Z[:, 0] > 0).astype(np.int64)
        tracemalloc.start()
        try:
            m = fit_forest(Z, y, n_trees=1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.trees[0].feature == 0
        assert peak < 20e6


class TestSplitSearch:
    def test_matches_per_feature_search(self):
        # random nodes (repeated rows as in a bootstrap) and sorted candidate
        # sets: the same score bits, feature, threshold bits, winning sort
        # order, cut and left class-1 count, or None for both
        rng = np.random.default_rng(57)
        for trial in range(1200):
            n, q = int(rng.integers(2, 30)), int(rng.integers(1, 12))
            Z, y = tied_problem(rng, n, q)
            XT = np.ascontiguousarray(Z.T)
            idx = rng.integers(0, n, size=int(rng.integers(2, 2 * n)))
            feats = np.sort(rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False))
            want = reference_best_split(XT, y, idx, feats)
            got = _best_split(XT, y, idx, feats)
            assert split_bits(got) == split_bits(want), trial

    def test_matches_per_feature_search_across_the_table_cap(self):
        # nodes of 2 to ~400 rows: those of at most _GINI_MAX read the Gini
        # table, larger ones compute their terms directly; both give the
        # textbook scores' bits
        rng = np.random.default_rng(63)
        sizes = []
        for trial in range(150):
            n, q = int(rng.integers(2, 300)), int(rng.integers(1, 8))
            Z, y = tied_problem(rng, n, q)
            XT = np.ascontiguousarray(Z.T)
            idx = rng.integers(0, n, size=int(rng.integers(2, 400)))
            feats = np.sort(rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False))
            sizes.append(idx.size)
            want = reference_best_split(XT, y, idx, feats)
            got = _best_split(XT, y, idx, feats)
            assert split_bits(got) == split_bits(want), trial
        assert min(sizes) <= _GINI_MAX < max(sizes)

    def test_gini_table_holds_the_textbook_bits(self):
        # each side's term m * g(m, x), computed as reference_best_split does
        for m in range(1, _GINI_MAX + 1):
            cut = np.full(m + 1, m)
            l1 = np.arange(m + 1)
            l0 = cut - l1
            term = cut * (1.0 - (l1 / cut) ** 2 - (l0 / cut) ** 2)
            assert _GINI[m, :m + 1].tobytes() == term.tobytes(), m
        assert not _GINI.flags.writeable
        with pytest.raises(ValueError):
            _GINI[1, 0] = 0.0

    def test_signed_zeros_in_one_node(self):
        # -0.0 and 0.0 tie, so the cut between them is masked; the cuts
        # beside the run of zeros (and their thresholds' bits) do not depend
        # on which zero the stable sort puts last, so any row order of the
        # node gives the same split
        tiny = 5e-324
        XT = np.array([[-0.0, 1.0, 0.0, -1.0, -0.0, 0.0, 2.0, 0.0],
                       [0.0, tiny, -0.0, 0.0, -0.0, tiny, tiny, -0.0],
                       [-tiny, 0.0, -0.0, -tiny, 0.0, -0.0, -0.0, -tiny]])
        rng = np.random.default_rng(59)
        for labels in ([0, 1, 0, 0, 0, 0, 1, 0], [1, 0, 1, 1, 0, 0, 0, 1]):
            y = np.array(labels, dtype=np.int64)
            for feats in ([0], [1], [2], [0, 1, 2]):
                feats = np.array(feats)
                seen = set()
                for _ in range(20):
                    idx = rng.permutation(8)
                    got = _best_split(XT, y, idx, feats)
                    assert split_bits(got) == split_bits(reference_best_split(XT, y, idx, feats))
                    seen.add(split_bits(got)[:3])
                assert len(seen) == 1

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.integers(0, 1)), min_size=2, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_cut_leaves_both_children_non_empty(self, rows):
        # any finite values, near the float range's ends and subnormals too
        XT = np.array([[v for v, _ in rows]])
        y = np.array([c for _, c in rows], dtype=np.int64)
        idx = np.arange(len(rows))
        got = _best_split(XT, y, idx, np.array([0]))
        assert split_bits(got) == split_bits(reference_best_split(XT, y, idx, np.array([0])))
        if np.all(XT == XT[0, 0]):
            assert got is None
        else:
            _, _, thr, order, i, l1 = got
            left = XT[0] <= thr
            assert left.any() and not left.all()
            assert sorted(order[:i + 1].tolist()) == np.flatnonzero(left).tolist()
            assert l1 == int(y[left].sum())

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_forest_matches_per_feature_forest(self, monkeypatch, bootstrap):
        rng = np.random.default_rng(58)
        problems = [tied_problem(rng, int(rng.integers(10, 60)), int(rng.integers(2, 20)))
                    for _ in range(6)]
        # all but one of 10 columns constant: most nodes draw only constant
        # features among their ceil(sqrt(10)) = 4, and the search falls back
        # to all 10
        Z = np.ones((30, 10))
        Z[:, 4] = np.round(rng.normal(size=30))
        problems.append((Z, (Z[:, 4] + rng.normal(size=30) > 0).astype(int)))
        sizes = []

        def spy(XT, y, idx, feats):
            sizes.append(len(feats))
            return reference_best_split(XT, y, idx, feats)

        for Z, y in problems:
            q = Z.shape[1]
            fast = fit_forest(Z, y, n_trees=8, bootstrap=bootstrap, seed=9)
            sizes.clear()
            with monkeypatch.context() as mp:
                mp.setattr(classify_module, "_best_split", spy)
                slow = fit_forest(Z, y, n_trees=8, bootstrap=bootstrap, seed=9)
            assert fast == slow
            assert set(sizes) <= {math.ceil(math.sqrt(q)), q}
        assert 10 in sizes  # the last problem searched every feature

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_forest_matches_routed_forest(self, bootstrap):
        # children taken from the winning sort order, with carried class
        # counts, give the forest that routing each node's rows by
        # X[idx, f] <= thr and recounting y[idx] gives
        rng = np.random.default_rng(60)
        problems = [tied_problem(rng, int(rng.integers(10, 60)), int(rng.integers(2, 20)))
                    for _ in range(6)]
        # all but one column constant: the fallback searches every feature,
        # the reference only the features not drawn
        Z = np.ones((30, 10))
        Z[:, 4] = np.round(rng.normal(size=30))
        problems.append((Z, (Z[:, 4] + rng.normal(size=30) > 0).astype(np.int64)))
        for Z, y in problems:
            got = fit_forest(Z, y, n_trees=8, bootstrap=bootstrap, seed=11)
            want = reference_fit_forest(Z, y.astype(np.int64), n_trees=8,
                                        bootstrap=bootstrap, seed=11)
            assert split_nodes(got)
            assert got == want

    def test_forest_across_the_table_cap_matches_routed_forest(self):
        # 300 rows: the upper nodes of every tree score their cuts directly,
        # the lower ones through the Gini table
        rng = np.random.default_rng(64)
        Z, y = tied_problem(rng, 300, 9)
        got = fit_forest(Z, y, n_trees=4, seed=13)
        want = reference_fit_forest(Z, y.astype(np.int64), n_trees=4, bootstrap=True, seed=13)
        assert got == want


class TestPredictForest:
    def test_single_tree_leaf_majority(self):
        leaf = TreeNode(counts=(1, 3))
        m = ForestModel((leaf,), 2)
        assert predict_forest(m, np.zeros(2)) == 1
        m = ForestModel((TreeNode(counts=(2, 2)),), 2)
        assert predict_forest(m, np.zeros(2)) == 0  # a tied leaf votes 0

    def test_row_on_threshold_goes_left(self):
        stump = TreeNode(feature=1, threshold=1.5,
                         left=TreeNode(counts=(0, 2)), right=TreeNode(counts=(2, 0)))
        m = ForestModel((stump,), 2)
        Z = np.array([[9.0, 1.5], [9.0, 1.5000001], [-9.0, 1.4999999]])
        assert predict_forest(m, Z).tolist() == [1, 0, 1]

    def test_vote_tie_goes_to_class_zero(self):
        m = ForestModel((TreeNode(counts=(1, 0)), TreeNode(counts=(0, 1))), 2)
        assert predict_forest(m, np.zeros(2)) == 0

    def test_unanimous(self):
        trees = tuple(TreeNode(counts=(0, 2)) for _ in range(3))
        m = ForestModel(trees, 1)
        assert predict_forest(m, np.zeros(1)) == 1

    def test_row_length_checked(self):
        m = ForestModel((TreeNode(counts=(1, 0)),), 3)
        with pytest.raises(ValueError, match="length 3"):
            predict_forest(m, np.zeros(2))
        with pytest.raises(ValueError, match="length 3"):
            predict_forest(m, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="length 3"):
            predict_forest(m, np.zeros((1, 1, 3)))

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(59)
        Z, y = tied_problem(rng, 50, 8)
        m = fit_forest(Z, y, n_trees=15, seed=3)
        new = np.round(rng.normal(size=(30, 8)) * 2.0) / 2.0
        for X in (Z, new):
            preds = predict_forest(m, X)
            assert preds.shape == (X.shape[0],)
            assert preds.tolist() == [predict_forest(m, row) for row in X]
        assert predict_forest(m, Z[:0]).shape == (0,)

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_walk_matches_node_routing(self, bootstrap):
        rng = np.random.default_rng(61)
        coarse = rng.integers(0, 3, size=(40, 6)).astype(float)
        coarse[:, [1, 4]] = 2.0  # constant columns
        problems = [tied_problem(rng, 60, 8),
                    (coarse, (coarse[:, 0] + rng.integers(0, 2, size=40) > 1).astype(int))]
        for Z, y in problems:
            m = fit_forest(Z, y, n_trees=25, bootstrap=bootstrap, seed=4)
            splits = split_nodes(m)
            assert splits  # the forest has split nodes to land on
            on = np.repeat(Z[:1], len(splits), axis=0)
            for i, (f, thr) in enumerate(splits):
                on[i, f] = thr  # exactly on one threshold
            on_all = Z[rng.integers(0, Z.shape[0], size=20)].copy()
            for f, thr in splits:
                on_all[rng.integers(0, 20), f] = thr  # on several at once
            odd = np.round(rng.normal(size=(30, Z.shape[1])) * 2.0) / 2.0
            odd[rng.random(odd.shape) < 0.3] = np.nan
            odd[rng.random(odd.shape) < 0.1] = np.inf
            odd[rng.random(odd.shape) < 0.1] = -np.inf
            fresh = rng.normal(size=(30, Z.shape[1]))
            for X in (Z, fresh, on, on_all, odd, Z[:0]):
                got = predict_forest(m, X)
                assert got.dtype == np.int64
                assert got.tolist() == reference_predict_forest(m, X).tolist()
            for row in (Z[0], on[0], odd[0]):
                got = predict_forest(m, row)
                assert type(got) is int and got == reference_predict_forest(m, row)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_constant_predictor(self):
        assert balanced_accuracy([0, 1, 1, 0], [1, 1, 1, 1]) == 0.5

    def test_hand_counted(self):
        got = balanced_accuracy([1, 1, 1, 0, 0], [1, 1, 0, 0, 1])
        assert got == pytest.approx(7.0 / 12.0)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            yt = rng.integers(0, 2, size=20)
            yp = rng.integers(0, 2, size=20)
            if yt.min() == yt.max():
                continue
            flipped = balanced_accuracy(1 - yt, 1 - yp)
            assert balanced_accuracy(yt, yp) == pytest.approx(flipped)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            balanced_accuracy([1, 1], [0, 1])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="y_pred"):
            balanced_accuracy([0, 1], [0, 2])


class TestGroupFolds:
    def test_leave_one_group_out(self):
        groups = [f"t{i % 8}" for i in range(24)]
        folds = group_folds(groups, "leave-one-group-out")
        assert len(folds) == 8
        garr = np.array(groups)
        seen = []
        for name, train, test in folds:
            assert set(garr[test]) == {name}
            assert name not in set(garr[train])
            assert sorted(np.concatenate([train, test])) == list(range(24))
            seen.append(name)
        assert len(set(seen)) == 8

    def test_two_fold_ab_halves(self):
        groups = ["a", "b", "c", "d"] * 3
        folds = group_folds(groups, "two-fold-AB")
        assert [f[0] for f in folds] == ["train-A-test-B", "train-B-test-A"]
        garr = np.array(groups)
        (name_ab, train_ab, test_ab), (name_ba, train_ba, test_ba) = folds
        assert set(garr[train_ab]) == {"a", "b"}
        assert set(garr[test_ab]) == {"c", "d"}
        np.testing.assert_array_equal(train_ab, test_ba)
        np.testing.assert_array_equal(test_ab, train_ba)

    def test_numeric_group_ids_sort_numerically(self):
        groups = ["10", "2", "1", "3"]
        folds = group_folds(groups, "two-fold-AB")
        garr = np.array(groups)
        _, train, test = folds[0]
        assert set(garr[train]) == {"1", "2"}  # not lexicographic {"1", "10"}
        assert set(garr[test]) == {"10", "3"}

    def test_numeric_ties_and_nan_order_by_text(self):
        names = [f[0] for f in group_folds(["nan", "1.0", "2", "01", "1", "b", "a"],
                                           "leave-one-group-out")]
        assert names == ["01", "1", "1.0", "2", "a", "b", "nan"]
        _, train, _ = group_folds(["0", "1", "01"], "two-fold-AB")[0]
        assert train.tolist() == [0, 2]

    def test_order_does_not_depend_on_hash_seed(self):
        # ids that tie as numbers ("1", "01") or never compare ("nan") must not
        # leave the fold order to set iteration, which string hashing drives
        script = (
            "import json, sys\n"
            "from topopeaks import group_folds\n"
            "cases = [['0', '1', '01'], ['nan', '2', '1', '3'], ['1.0', 'x', '1', 'nan', '01']]\n"
            "out = [[(name, train.tolist()) for name, train, _ in group_folds(g, scheme)]\n"
            "       for g in cases for scheme in ('leave-one-group-out', 'two-fold-AB')]\n"
            "json.dump(out, sys.stdout)\n"
        )
        runs = set()
        for seed in range(6):
            runs.add(json.dumps(run_fresh(script, env={"PYTHONHASHSEED": str(seed)})))
        assert len(runs) == 1

    def test_odd_group_count_puts_extra_in_a(self):
        folds = group_folds(["a", "b", "c"], "two-fold-AB")
        garr = np.array(["a", "b", "c"])
        _, train, _ = folds[0]
        assert set(garr[train]) == {"a", "b"}

    def test_needs_two_groups(self):
        with pytest.raises(ValueError, match="at least 2 groups"):
            group_folds(["only", "only"], "leave-one-group-out")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            group_folds(["a", "b"], "stratified")


class TestCVReport:
    def test_statistics(self):
        r = CVReport(("f1", "f2"), (0.8, 1.0))
        assert r.mean == pytest.approx(0.9)
        assert r.min == 0.8 and r.max == 1.0
        assert r.median == pytest.approx(0.9)
        assert r.std == pytest.approx(math.sqrt(0.02))

    def test_single_fold_std_is_nan(self):
        r = CVReport(("f1",), (0.75,))
        assert math.isnan(r.std)
        assert r.mean == 0.75

    def test_summary_table_lists_folds_and_stats(self):
        r = CVReport(("alpha", "beta"), (0.5, 1.0), skipped=("gamma",))
        table = r.summary_table()
        assert "alpha" in table and "0.5000" in table
        assert "gamma" in table and "skipped" in table
        assert "mean" in table and "0.7500" in table

    def test_name_score_mismatch(self):
        with pytest.raises(ValueError):
            CVReport(("a",), (0.5, 0.6))

    def test_fit_status_one_per_scored_fold_or_none(self):
        assert CVReport(("a", "b"), (0.5, 1.0)).fit_status == ()
        with pytest.raises(ValueError, match="fit status"):
            CVReport(("a", "b"), (0.5, 1.0), fit_status=("separated",))

    def test_summary_table_counts_separated_folds(self):
        r = CVReport(("a", "b", "c"), (0.5, 1.0, 1.0), skipped=("d",),
                     fit_status=("converged", "separated", "separated"))
        assert r.summary_table().splitlines()[-1] == f"{'separated folds':<24}2 of 3"
        assert "separated" not in CVReport(("a",), (0.5,)).summary_table()


class TestGroupCV:
    def test_logistic_end_to_end(self):
        ds = two_class_dataset(n=48, q=40, seed=20, n_groups=4)
        report = group_cv(ds, "leave-one-group-out", "logistic", 50)
        assert len(report.fold_scores) == 4
        assert all(0.0 <= s <= 1.0 for s in report.fold_scores)

    def test_fit_status_on_acceptance_cohort(self):
        ds = _two_class_groups()
        logistic = group_cv(ds, "leave-one-group-out", "logistic", 50.0)
        assert logistic.fit_status == ("separated",) * 4
        assert logistic.summary_table().endswith("separated folds         4 of 4")
        forest = group_cv(ds, "two-fold-AB", "forest", 50.0, n_trees=5)
        assert forest.fit_status == ()
        assert "separated" not in forest.summary_table()

    def test_forest_two_fold(self):
        ds = two_class_dataset(n=32, q=30, seed=21, n_groups=4)
        report = group_cv(ds, "two-fold-AB", "forest", 50, n_trees=10)
        assert report.fold_names == ("train-A-test-B", "train-B-test-A")

    def test_single_class_fold_skipped_with_warning(self):
        ds = two_class_dataset(n=30, q=30, seed=22, n_groups=3)
        # make group g0 all class 0 so its test fold is degenerate
        labels = ds.labels.copy()
        labels[:10] = 0
        labels[10] = 1  # keep the others two-class
        poked = type(ds)(mz=ds.mz, intensities=ds.intensities, labels=labels, groups=ds.groups)
        with pytest.warns(UserWarning, match="single class"):
            report = group_cv(poked, "leave-one-group-out", "logistic", 50)
        assert report.skipped == ("g0",)
        assert len(report.fold_scores) == 2

    def test_all_folds_degenerate_is_an_error(self):
        ds = two_class_dataset(n=20, q=25, seed=23, n_groups=2)
        labels = np.array([0] * 10 + [1] * 10)
        aligned = type(ds)(mz=ds.mz, intensities=ds.intensities, labels=labels, groups=ds.groups)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="no usable folds"):
                group_cv(aligned, "leave-one-group-out", "logistic", 50)

    def test_unknown_classifier(self):
        ds = two_class_dataset(n=12, q=20, seed=24)
        with pytest.raises(ValueError, match="unknown classifier"):
            group_cv(ds, "leave-one-group-out", "svm", 50)

    def test_test_rows_cannot_influence_training(self):
        # poison held-out rows with huge values; training must not notice
        ds = two_class_dataset(n=24, q=30, seed=25, n_groups=3)
        folds = group_folds(ds.groups, "leave-one-group-out")
        for _, train_idx, test_idx in folds:
            poisoned = ds.intensities.copy()
            poisoned[test_idx] = 1e6
            pds = type(ds)(mz=ds.mz, intensities=poisoned, labels=ds.labels, groups=ds.groups)

            Z_clean = build_matrix(ds.subset(train_idx), 50)
            Z_dirty = build_matrix(pds.subset(train_idx), 50)
            np.testing.assert_array_equal(Z_clean, Z_dirty)

            y_train = ds.labels[train_idx]
            m_clean = fit_logistic(Z_clean, y_train)
            m_dirty = fit_logistic(Z_dirty, y_train)
            np.testing.assert_array_equal(m_clean.beta, m_dirty.beta)

            f_clean = fit_forest(Z_clean, y_train, n_trees=4, seed=1234)
            f_dirty = fit_forest(Z_dirty, y_train, n_trees=4, seed=1234)
            assert f_clean == f_dirty

    def test_features_built_once_per_call(self, monkeypatch):
        calls = []

        def counting(dataset, k):
            calls.append(dataset.n)
            return build_matrix(dataset, k)

        monkeypatch.setattr(classify_module, "build_matrix", counting)
        ds = two_class_dataset(n=32, q=30, seed=26, n_groups=4)
        group_cv(ds, "leave-one-group-out", "logistic", 50)
        group_cv(ds, "two-fold-AB", "forest", 50, n_trees=3)
        assert calls == [ds.n, ds.n]

    def test_fold_matrices_equal_per_fold_builds(self, monkeypatch):
        # the slices of the one matrix that reach fitting and prediction
        # are the matrices of the fold's own training and held-out spectra
        seen = []
        fit, predict = classify_module.fit_logistic, classify_module.predict_logistic

        def fit_spy(Z, y, **kwargs):
            seen.append(Z)
            return fit(Z, y, **kwargs)

        def predict_spy(model, Z):
            seen.append(Z)
            return predict(model, Z)

        monkeypatch.setattr(classify_module, "fit_logistic", fit_spy)
        monkeypatch.setattr(classify_module, "predict_logistic", predict_spy)
        ds = two_class_dataset(n=32, q=30, seed=27, n_groups=4)
        group_cv(ds, "leave-one-group-out", "logistic", 40)
        expected = [build_matrix(ds.subset(idx), 40)
                    for _, train_idx, test_idx in group_folds(ds.groups, "leave-one-group-out")
                    for idx in (train_idx, test_idx)]
        assert len(seen) == len(expected) == 8
        for got, want in zip(seen, expected):
            np.testing.assert_array_equal(got, want)
