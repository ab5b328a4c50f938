"""Acceptance gate for the package.

Each test covers one acceptance criterion and prints a single
``[acceptance] PASS/FAIL: <name>`` line; run with ``-s`` to see the lines
while the suite executes. Wall-clock budgets are asserted where the
criterion carries one. The real-data benchmark at the end is optional and
skips unless the TOPOPEAKS_REAL_DATA environment variable points at a
directory holding spectra.csv and labels.csv.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import detect_extrema

from topopeaks.classify import (
    _loglik,
    _score,
    balanced_accuracy,
    fit_forest,
    fit_logistic,
    group_cv,
    predict_forest,
)
from topopeaks.core import LabeledDataset, Spectrum, load_dataset_csv
from topopeaks.diagram import bottleneck_distance
from topopeaks.persistence import (
    _transform_values,
    oracle_transform,
    reduce as reduce_triples,
    to_diagram,
    transform,
)
from topopeaks.simulate import (
    NoiseModel,
    SimulationSpec,
    add_noise,
    bench_denoise,
    denoise,
    generate_ground_truth,
    mask_iou,
    recovered_mask,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] FAIL: {name}")
        raise
    print(f"\n[acceptance] PASS: {name}")


def _random_spectrum(rng):
    """Spectra mixing plateaus, ties, and generic values."""
    q = int(rng.integers(1, 201))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        vals = rng.integers(0, 5, q).astype(np.float64)
    elif kind == 1:
        vals = rng.integers(0, 3, q).astype(np.float64)
    elif kind == 2:
        vals = rng.uniform(0.0, 100.0, q)
    else:
        vals = np.round(rng.uniform(0.0, 10.0, q), 1)
    return Spectrum(np.arange(q, dtype=np.float64), vals)


def test_transform_matches_sweep_oracle_on_1000_spectra():
    with criterion("kernel transform equals sweep oracle on 1000 spectra in <10s"):
        rng = np.random.default_rng(12345)
        start = time.perf_counter()
        for _ in range(1000):
            s = _random_spectrum(rng)
            assert transform(s) == oracle_transform(s)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_mirrored_spectra_same_diagram_distinct_reduced_transform():
    with criterion("mirrors: bottleneck distance 0, reduced transforms differ"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            q = int(rng.integers(16, 121))
            axis = np.arange(q, dtype=np.float64)
            vals = rng.uniform(0.0, 10.0, q)
            fwd = Spectrum(axis, vals)
            rev = Spectrum(axis, vals[::-1].copy())
            tf, tr = transform(fwd), transform(rev)
            assert to_diagram(tf) == to_diagram(tr)
            assert bottleneck_distance(to_diagram(tf), to_diagram(tr)) == 0.0
            if not np.array_equal(vals, vals[::-1]):
                red_f = [(p.position, p.persistence) for p in reduce_triples(tf)]
                red_r = [(p.position, p.persistence) for p in reduce_triples(tr)]
                assert sorted(red_f) != sorted(red_r)


def _timed(values, reps):
    _transform_values(values)  # warm caches before taking the floor
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        _transform_values(values)
        best = min(best, time.perf_counter() - t0)
    return best


def _wave(q, n_periods=20):
    t = np.arange(q, dtype=np.float64)
    return 2.0 + np.sin(2.0 * np.pi * n_periods * t / q) + 1e-9 * t


def _descending_peaks(m, q=5000):
    """m maxima in decreasing height order with rising saddles between them.

    Each recursion step then peels a single peak while scanning almost the
    whole remaining range of minima, the quadratic worst case.
    """
    vals = np.zeros(q)
    for i in range(m):
        vals[2 * i + 1] = 2 * m - i
        vals[2 * i + 2] = i + 1e-3
    vals[2 * m] = 4 * m
    return vals


def test_runtime_scaling_in_length_and_peak_count():
    with criterion("runtime scales ~linearly in q and ~quadratically in peaks, <60s"):
        start = time.perf_counter()

        reps = {10_000: 25, 100_000: 9, 1_000_000: 5}
        t_q = {q: _timed(_wave(q), reps[q]) for q in (10_000, 100_000, 1_000_000)}
        assert t_q[10_000] < t_q[100_000] < t_q[1_000_000]
        ratio_q = t_q[1_000_000] / t_q[10_000]
        # 100x more samples: linear predicts 100x (quadratic would be
        # ~10_000x); accept within a factor of 2.
        assert 50.0 <= ratio_q <= 200.0, f"q ratio {ratio_q:.1f}"

        t_m = {m: _timed(_descending_peaks(m), 9) for m in (100, 1000)}
        ratio_m = t_m[1000] / t_m[100]
        # 10x more peaks at fixed q: quadratic predicts 100x (m log m
        # would stay near ~13x); accept within a factor of 3.
        assert 100.0 / 3.0 <= ratio_m <= 300.0, f"m ratio {ratio_m:.1f}"

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_denoise_wall_clock_tracks_pixel_count():
    with criterion("denoise wall clock grows with image area (60/30 and 42/30)"):
        rows = bench_denoise((30, 42, 60), NoiseModel("gaussian", 0.1, seed=5),
                             k=25.0)
        by_size = {r.size: r.seconds for r in rows}
        ratio_60 = by_size[60] / by_size[30]
        ratio_42 = by_size[42] / by_size[30]
        # Area ratios are 4.0 and 1.96; per-pixel work is constant.
        assert 3.0 <= ratio_60 <= 5.0, f"60/30 ratio {ratio_60:.2f}"
        assert 1.5 <= ratio_42 <= 2.7, f"42/30 ratio {ratio_42:.2f}"


def _recovery_score(truth_mask, noisy, k):
    return mask_iou(recovered_mask(denoise(noisy, k)), truth_mask)


def test_region_recovery_after_denoising():
    with criterion("region recovery: gaussian IoU >=0.8, poisson IoU >=0.3, <120s"):
        start = time.perf_counter()
        image, truth = generate_ground_truth(SimulationSpec())

        for sd in (0.1, 0.5):
            noisy = add_noise(image, NoiseModel("gaussian", sd, seed=5))
            best = max(_recovery_score(truth, noisy, k) for k in (10.0, 25.0, 50.0))
            assert best >= 0.8, f"gaussian sd={sd}: best IoU {best:.3f}"

        noisy = add_noise(image, NoiseModel("poisson", 3.0, seed=5))
        best = max(_recovery_score(truth, noisy, k) for k in (10.0, 25.0, 50.0))
        assert best >= 0.3, f"poisson lam=3.0: best IoU {best:.3f}"

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def _fd_gradient(X, y, beta, h=1e-6):
    g = np.zeros_like(beta)
    for j in range(beta.size):
        up, dn = beta.copy(), beta.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (_loglik(X, y, up) - _loglik(X, y, dn)) / (2.0 * h)
    return g


def test_classifier_building_blocks():
    with criterion("logistic gradient, intercept closed form, forest exact fit"):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            p = int(rng.integers(1, 6))
            X = np.column_stack([np.ones(n), rng.normal(0.0, 1.0, (n, p))])
            y = rng.integers(0, 2, n).astype(np.float64)
            beta = rng.normal(0.0, 0.5, p + 1)
            g = _score(X, y, beta)
            fd = _fd_gradient(X, y, beta)
            err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            assert err <= 1e-5, f"gradient mismatch {err:.2e}"

        model = fit_logistic(np.zeros((4, 0)), np.array([1, 1, 1, 0]))
        assert abs(model.beta[0] - math.log(3.0)) <= 1e-6

        Z = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        forest = fit_forest(Z, y, n_trees=25, bootstrap=False, seed=7)
        preds = [predict_forest(forest, row) for row in Z]
        assert balanced_accuracy(y, preds) == 1.0


def _gaussian_bumps(q, centers, heights, sigma=1.5):
    x = np.arange(q, dtype=np.float64)
    out = np.zeros(q)
    for c, h in zip(centers, heights):
        out += h * np.exp(-0.5 * ((x - c) / sigma) ** 2)
    return out


def _two_class_groups(n=200, q=200, seed=42):
    """Six shared peaks plus one whose height codes the class."""
    rng = np.random.default_rng(seed)
    mz = np.linspace(100.0, 1100.0, q)
    common = (20, 45, 70, 130, 160, 185)
    rows, labels, groups = [], [], []
    for i in range(n):
        label = i % 2
        heights = [3.0 + rng.normal(0.0, 0.5) for _ in common]
        heights.append((6.0 if label else 2.0) + rng.normal(0.0, 0.3))
        vals = _gaussian_bumps(q, common + (100,), heights)
        vals = np.maximum(vals + rng.normal(0.0, 0.01, q), 0.0)
        rows.append(vals)
        labels.append(label)
        groups.append(f"g{i // 50}")
    return LabeledDataset(mz, np.array(rows), np.array(labels), tuple(groups))


def test_end_to_end_group_cv_both_classifiers():
    with criterion("end-to-end LOGO CV: both classifiers mean >=0.95, <60s"):
        start = time.perf_counter()
        dataset = _two_class_groups()
        logistic = group_cv(dataset, "leave-one-group-out", "logistic", 50.0)
        forest = group_cv(dataset, "leave-one-group-out", "forest", 50.0,
                          n_trees=100, seed=1234)
        assert logistic.mean >= 0.95, f"logistic mean {logistic.mean:.3f}"
        assert forest.mean >= 0.95, f"forest mean {forest.mean:.3f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_reduced_transform_stores_two_scalars_per_maximum():
    # Holds for every non-constant spectrum (plateaus and ties included):
    # a peak's merge level is always strictly below its birth, so no pair is
    # dropped for zero persistence. A constant spectrum is the one exception
    # (its single feature has persistence 0).
    with criterion("reduced transform holds exactly 2*m scalars per spectrum"):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 50:
            s = _random_spectrum(rng)
            if np.all(s.intensity == s.intensity[0]):
                continue
            m = len(detect_extrema(s).maxima)
            pairs = reduce_triples(transform(s))
            assert len(pairs) == m
            scalars = sum(len(p) for p in pairs)
            assert scalars == 2 * m
            assert all(p.persistence > 0 for p in pairs)
            checked += 1


REAL_DATA_DIR = os.environ.get("TOPOPEAKS_REAL_DATA", "")


@pytest.mark.skipif(not REAL_DATA_DIR, reason="TOPOPEAKS_REAL_DATA not set")
def test_real_data_forest_benchmark():
    with criterion("real data: forest LOGO mean balanced accuracy 0.878 +/- 0.05"):
        dataset = load_dataset_csv(
            os.path.join(REAL_DATA_DIR, "spectra.csv"),
            os.path.join(REAL_DATA_DIR, "labels.csv"),
        )
        report = group_cv(dataset, "leave-one-group-out", "forest", 30.0,
                          n_trees=1000, seed=1234)
        assert abs(report.mean - 0.878) <= 0.05, f"mean {report.mean:.3f}"
