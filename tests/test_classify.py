"""Logistic regression, random forest, balanced accuracy, and group CV."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import two_class_dataset

from topopeaks import (
    CVReport,
    balanced_accuracy,
    build_matrix,
    fit_forest,
    fit_logistic,
    gini,
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
    _best_split,
    _loglik,
    _score,
)


def reference_best_split(X, y, idx, feats, min_leaf):
    """The split search one feature at a time, as a reference for the 2-D one."""
    n = idx.size
    best = None
    for f in feats:
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xv = xs[order]
        yv = y[idx][order]
        cut = np.flatnonzero(xv[1:] != xv[:-1]) + 1  # candidate left-side sizes
        if min_leaf > 1:
            cut = cut[(cut >= min_leaf) & (n - cut >= min_leaf)]
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
            thr = float(xv[cut[i] - 1] + xv[cut[i]]) / 2.0
            best = (float(g[i]), int(f), thr)
    return best


def tied_problem(rng, n, q):
    """Rounded (tied) features with a few constant columns and noisy labels."""
    Z = np.round(rng.normal(size=(n, q)) * 2.0) / 2.0
    Z[:, rng.choice(q, size=q // 4, replace=False)] = rng.normal()
    y = (Z[:, 0] + Z[:, -1] + rng.normal(size=n) > 0).astype(int)
    return Z, y


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

    def test_accepts_feature_matrix_object(self):
        ds = two_class_dataset(n=16, q=30, seed=1)
        m = fit_logistic(build_matrix(ds, 100), ds.labels)
        assert m.beta.size == 31

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_logistic(np.zeros((0, 2)), np.zeros(0))

    def test_label_values_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            fit_logistic(np.zeros((2, 1)), np.array([0, 3]))


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

    def test_column_rescale_invariance(self):
        # scale a column by 4 and its coefficient by 1/4: identical scores
        rng = np.random.default_rng(52)
        Z = rng.normal(size=(30, 3)) ** 2
        y = (Z[:, 1] + rng.normal(scale=2.0, size=30) > 1.0).astype(int)
        m = fit_logistic(Z, y)
        beta2 = m.beta.copy()
        beta2[2] /= 4.0
        m2 = LogisticModel(beta2, m.threshold, m.status, m.n_iter)
        for row in Z[:5]:
            scaled = row.copy()
            scaled[1] *= 4.0
            assert predict_logistic(m2, scaled) == predict_logistic(m, row)

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\)"):
            LogisticModel(np.zeros(2), threshold=1.0)


class TestGini:
    def test_pure(self):
        assert gini([1, 1, 1]) == 0.0
        assert gini([0]) == 0.0

    def test_even_split(self):
        assert gini([0, 1]) == 0.5
        assert gini([0, 0, 1, 1]) == 0.5

    def test_quarter(self):
        assert gini([1, 0, 0, 0]) == pytest.approx(0.375)

    def test_empty(self):
        assert gini([]) == 0.0


class TestFitForest:
    def test_four_point_line(self):
        Z = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        m = fit_forest(Z, y, n_trees=1, mtry=1, bootstrap=False)
        root = m.trees[0]
        assert root.feature == 0
        assert root.threshold == 1.5
        assert [predict_forest(m, z) for z in Z] == [0, 0, 1, 1]

    def test_default_mtry_is_ceil_sqrt_q(self):
        ds = two_class_dataset(n=10, q=5, seed=2)
        m = fit_forest(build_matrix(ds, 100), ds.labels, n_trees=2)
        assert m.mtry == 3

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
        # min_leaf=1 and the full sample per tree: every training row ends in
        # a pure leaf unless two identical rows carry different labels
        rng = np.random.default_rng(53)
        Z = rng.normal(size=(40, 6))
        y = (rng.uniform(size=40) < 0.5).astype(int)
        m = fit_forest(Z, y, n_trees=5, bootstrap=False)
        preds = [predict_forest(m, row) for row in Z]
        assert preds == y.tolist()

    def test_duplicated_rescaled_column_is_never_preferred(self):
        # the copy ties every split of the original column; ties resolve to
        # the smaller feature index, so the trees come out identical
        rng = np.random.default_rng(54)
        Z = rng.normal(size=(30, 4)) ** 2
        y = (Z[:, 1] > np.median(Z[:, 1])).astype(int)
        Z_dup = np.column_stack([Z, 0.5 * Z[:, 1]])
        a = fit_forest(Z, y, n_trees=3, mtry=4, bootstrap=False, seed=7)
        b = fit_forest(Z_dup, y, n_trees=3, mtry=5, bootstrap=False, seed=7)
        assert a.trees == b.trees
        for row in rng.normal(size=(10, 4)) ** 2:
            ext = np.append(row, 0.5 * row[1])
            assert predict_forest(a, row) == predict_forest(b, ext)

    def test_parameter_validation(self):
        Z = np.zeros((2, 2))
        y = np.array([0, 1])
        with pytest.raises(ValueError, match="n_trees"):
            fit_forest(Z, y, n_trees=0)
        with pytest.raises(ValueError, match=r"mtry must be in \[1, 2\]"):
            fit_forest(Z, y, mtry=3)
        with pytest.raises(ValueError, match="min_leaf"):
            fit_forest(Z, y, min_leaf=0)
        with pytest.raises(ValueError, match="empty"):
            fit_forest(np.zeros((0, 2)), np.zeros(0))

    def test_model_is_unhashable(self):
        m = fit_forest(np.array([[0.0], [1.0]]), np.array([0, 1]), n_trees=1)
        with pytest.raises(TypeError):
            hash(m)


class TestSplitSearch:
    def test_matches_per_feature_search(self):
        # random nodes (repeated rows as in a bootstrap) and sorted candidate
        # sets: the same score bits, feature and threshold, or None for both
        rng = np.random.default_rng(57)
        for trial in range(300):
            n, q = int(rng.integers(2, 30)), int(rng.integers(1, 12))
            Z, y = tied_problem(rng, n, q)
            idx = rng.integers(0, n, size=int(rng.integers(2, 2 * n)))
            feats = np.sort(rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False))
            for min_leaf in (1, 2, 3, 5):
                want = reference_best_split(Z, y.astype(float), idx, feats, min_leaf)
                got = _best_split(Z, y.astype(float), idx, feats, min_leaf)
                assert got == want, (trial, min_leaf)

    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_forest_matches_per_feature_forest(self, monkeypatch, min_leaf, bootstrap):
        rng = np.random.default_rng(58)
        problems = [(*tied_problem(rng, int(rng.integers(10, 60)), int(rng.integers(2, 20))),
                     None) for _ in range(6)]
        # all but one column constant and mtry 1: most nodes draw only
        # constant features, and the search falls back to the rest
        Z = np.ones((30, 6))
        Z[:, 4] = np.round(rng.normal(size=30))
        problems.append((Z, (Z[:, 4] + rng.normal(size=30) > 0).astype(int), 1))
        sizes = []

        def spy(X, y, idx, feats, leaf):
            sizes.append(len(feats))
            return reference_best_split(X, y, idx, feats, leaf)

        for Z, y, mtry in problems:
            fast = fit_forest(Z, y, n_trees=8, mtry=mtry, min_leaf=min_leaf,
                              bootstrap=bootstrap, seed=9)
            sizes.clear()
            with monkeypatch.context() as mp:
                mp.setattr(classify_module, "_best_split", spy)
                slow = fit_forest(Z, y, n_trees=8, mtry=mtry, min_leaf=min_leaf,
                                  bootstrap=bootstrap, seed=9)
            assert fast == slow
        assert max(sizes) == 5  # the last problem searched the rest


class TestPredictForest:
    def test_single_tree_leaf_majority(self):
        leaf = TreeNode(counts=(1, 3))
        m = ForestModel((leaf,), 2, 1, 1, 1, 0)
        assert predict_forest(m, np.zeros(2)) == 1
        m = ForestModel((TreeNode(counts=(2, 2)),), 2, 1, 1, 1, 0)
        assert predict_forest(m, np.zeros(2)) == 0  # a tied leaf votes 0

    def test_row_on_threshold_goes_left(self):
        stump = TreeNode(feature=1, threshold=1.5,
                         left=TreeNode(counts=(0, 2)), right=TreeNode(counts=(2, 0)))
        m = ForestModel((stump,), 2, 1, 1, 1, 0)
        Z = np.array([[9.0, 1.5], [9.0, 1.5000001], [-9.0, 1.4999999]])
        assert predict_forest(m, Z).tolist() == [1, 0, 1]

    def test_vote_tie_goes_to_class_zero(self):
        m = ForestModel((TreeNode(counts=(1, 0)), TreeNode(counts=(0, 1))), 2, 2, 1, 1, 0)
        assert predict_forest(m, np.zeros(2)) == 0

    def test_unanimous(self):
        trees = tuple(TreeNode(counts=(0, 2)) for _ in range(3))
        m = ForestModel(trees, 1, 3, 1, 1, 0)
        assert predict_forest(m, np.zeros(1)) == 1

    def test_row_length_checked(self):
        m = ForestModel((TreeNode(counts=(1, 0)),), 3, 1, 1, 1, 0)
        with pytest.raises(ValueError, match="length 3"):
            predict_forest(m, np.zeros(2))
        with pytest.raises(ValueError, match="length 3"):
            predict_forest(m, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="length 3"):
            predict_forest(m, np.zeros((1, 1, 3)))

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(59)
        Z, y = tied_problem(rng, 50, 8)
        m = fit_forest(Z, y, n_trees=15, min_leaf=2, seed=3)
        new = np.round(rng.normal(size=(30, 8)) * 2.0) / 2.0
        for X in (Z, new):
            preds = predict_forest(m, X)
            assert preds.shape == (X.shape[0],)
            assert preds.tolist() == [predict_forest(m, row) for row in X]
        assert predict_forest(m, Z[:0]).shape == (0,)


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
        src = str(Path(classify_module.__file__).resolve().parents[1])
        runs = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            runs.add(json.dumps(json.loads(done.stdout)))
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


class TestGroupCV:
    def test_logistic_end_to_end(self):
        ds = two_class_dataset(n=48, q=40, seed=20, n_groups=4)
        report = group_cv(ds, "leave-one-group-out", "logistic", 50)
        assert len(report.fold_scores) == 4
        assert all(0.0 <= s <= 1.0 for s in report.fold_scores)

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
