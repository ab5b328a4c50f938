"""Synthetic image generation, noise models, denoising, mask recovery."""

from __future__ import annotations

import decimal
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from conftest import detect_extrema

from topopeaks import (
    NoiseModel,
    SimulationSpec,
    Spectrum,
    add_noise,
    bench_denoise,
    denoise,
    generate_ground_truth,
    mask_iou,
    mean_image,
    otsu_threshold,
    recovered_mask,
    reduce,
    simulate_means,
    transform,
)
from topopeaks import persistence
from topopeaks.cli import main
from topopeaks.core import LabeledDataset, MSImage, _Made
from topopeaks.simulate import _EDGE, _GAP, _SHAPE, MZ_RANGE, _region_masks

SMALL = SimulationSpec(size=12, n_mz=500, n_peaks=10, seed=3)
# 144 and 169 pixels: 18 whole blocks of persistence._BLOCK = 8 rows, and 21 and a short one
BLOCK_SPECS = (SMALL, SimulationSpec(size=13, n_mz=500, n_peaks=10, seed=3))


class TestSimulationSpec:
    def test_defaults(self):
        spec = SimulationSpec()
        assert spec.size == 30 and spec.n_mz == 3466
        assert spec.n_peaks == 50
        mz = generate_ground_truth(SMALL)[0].mz
        assert (mz[0], mz[-1], mz.size) == (*MZ_RANGE, SMALL.n_mz)

    def test_too_small_grid(self):
        with pytest.raises(ValueError, match="at least 8"):
            SimulationSpec(size=7)

    def test_axis_too_short_for_separated_peaks(self):
        with pytest.raises(ValueError, match="too small for"):
            SimulationSpec(n_mz=100, n_peaks=50)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseModel(kind="salt")
        with pytest.raises(ValueError, match="non-negative"):
            NoiseModel(kind="gaussian", level=-1.0)

    @pytest.mark.parametrize("baseline", [float("nan"), float("inf"), -1.0])
    def test_baseline_must_be_finite_and_non_negative(self, baseline):
        with pytest.raises(ValueError, match="baseline must be finite and non-negative"):
            SimulationSpec(baseline=baseline)

    @pytest.mark.parametrize("level", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", ["gaussian", "poisson"])
    def test_noise_level_must_be_finite(self, kind, level):
        with pytest.raises(ValueError, match="noise level must be finite and non-negative"):
            NoiseModel(kind, level)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            SimulationSpec(seed=-1)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            NoiseModel("gaussian", 0.1, seed=-1)


class TestRegionGeometry:
    def test_masks_disjoint_and_nonempty(self):
        for size in (8, 30, 42, 60):
            circle, square = _region_masks(size)
            assert not (circle & square).any()
            assert circle.any() and square.any()

    def test_circle_top_left_square_bottom_right(self):
        circle, square = _region_masks(30)
        rows, cols = np.nonzero(circle)
        assert rows.max() < 15 and cols.max() < 15
        rows, cols = np.nonzero(square)
        assert rows.min() >= 15 and cols.min() >= 15


class TestGenerateGroundTruth:
    def test_deterministic(self):
        a, mask_a = generate_ground_truth(SMALL)
        b, mask_b = generate_ground_truth(SMALL)
        np.testing.assert_array_equal(a.spectra, b.spectra)
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_background_is_flat_baseline(self):
        for baseline in (0.0, 5.0):
            spec = SimulationSpec(size=12, n_mz=500, n_peaks=10, baseline=baseline)
            image, mask = generate_ground_truth(spec)
            bg = image.spectra[~mask.ravel()]
            assert np.all(bg == baseline)

    def test_region_pixels_share_one_spectrum(self):
        image, _ = generate_ground_truth(SMALL)
        circle, square = _region_masks(SMALL.size)
        c_rows = image.spectra[circle.ravel()]
        assert np.all(c_rows == c_rows[0])
        s_rows = image.spectra[square.ravel()]
        assert np.all(s_rows == s_rows[0])
        assert not np.array_equal(c_rows[0], s_rows[0])

    def test_each_region_gets_half_the_peaks(self):
        # default settings: 50 peaks, 25 modes per region spectrum
        image, _ = generate_ground_truth(SimulationSpec())
        circle, square = _region_masks(30)
        for region in (circle, square):
            row = image.spectra[region.ravel()][0]
            s = Spectrum(mz=image.mz, intensity=row)
            assert len(detect_extrema(s).maxima) == 25

    def test_peak_positions_respect_min_separation(self):
        image, _ = generate_ground_truth(SimulationSpec(seed=77))
        circle, square = _region_masks(30)
        both = [image.spectra[m.ravel()][0] for m in (circle, square)]
        positions = sorted(
            p
            for row in both
            for p in detect_extrema(Spectrum(mz=image.mz, intensity=row)).maxima
        )
        gaps = np.diff(positions)
        assert gaps.min() >= 8  # 10-step draw separation, minus shape overlap slack

    def test_mask_is_union_of_regions(self):
        _, mask = generate_ground_truth(SMALL)
        circle, square = _region_masks(SMALL.size)
        np.testing.assert_array_equal(mask, circle | square)

    @pytest.mark.parametrize("spec", [
        *(SimulationSpec(size=8, seed=seed) for seed in (1, 2, 3)),
        SimulationSpec(size=8, baseline=2.7, seed=4),
        SimulationSpec(size=8, n_mz=100, n_peaks=6, seed=5),  # narrower than a peak's window
    ], ids=["seed1", "seed2", "seed3", "baseline", "narrow"])
    def test_equals_the_plain_sum_in_bytes(self, spec):
        got = generate_ground_truth(spec)[0].spectra
        assert got.tobytes() == _reference_truth(spec).tobytes()

    def test_shape_table_is_correctly_rounded(self):
        # math.exp is not required to round correctly; a libm that rounded
        # one entry differently would move every simulated image
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            exact = [float((decimal.Decimal(-d * d) / 8).exp()) for d in range(_SHAPE.size + 1)]
        assert _SHAPE.size == 78 and exact[-1] == 0.0
        assert _SHAPE.tolist() == exact[:-1]


def _reference_truth(spec: SimulationSpec) -> np.ndarray:
    """The ground-truth spectra, summed in plain Python one position at a time.

    The draws repeat the simulator's. Each position of a region sums
    height * exp(-(x - c)^2 / 8) over the region's peaks in their drawn
    order, then adds the baseline.
    """
    rng = np.random.default_rng(spec.seed)
    slots = spec.n_mz - 2 * _EDGE - (spec.n_peaks - 1) * _GAP
    base = np.sort(rng.choice(slots, size=spec.n_peaks, replace=False))
    centers = (_EDGE + base + _GAP * np.arange(spec.n_peaks)).tolist()
    heights = rng.uniform(1.0, 10.0, spec.n_peaks).tolist()
    assign = rng.permutation(spec.n_peaks).tolist()
    half = spec.n_peaks // 2
    rows = np.full((spec.size * spec.size, spec.n_mz), float(spec.baseline))
    for ids, region in zip((assign[:half], assign[half:]), _region_masks(spec.size)):
        spectrum = []
        for x in range(spec.n_mz):
            total = 0.0
            for p in ids:
                total += heights[p] * math.exp(-(x - centers[p]) ** 2 / 8)
            spectrum.append(total + spec.baseline)
        rows[region.ravel()] = spectrum
    return rows


def _simulated_digest() -> str:
    """SHA-256 of size-10 ground truths and of simulate_means' grids, seeds 1-3."""
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        h.update(generate_ground_truth(SimulationSpec(size=10, seed=seed))[0].spectra.tobytes())
        model = NoiseModel("gaussian", 0.1, seed)
        for grid in simulate_means(SimulationSpec(seed=seed), model, (10, 25)):
            h.update(grid.tobytes())
    return h.hexdigest()


class TestAddNoise:
    def test_none_is_identity(self):
        image, _ = generate_ground_truth(SMALL)
        assert add_noise(image, NoiseModel()) is image

    def test_zero_sd_identity(self):
        image, _ = generate_ground_truth(SMALL)
        out = add_noise(image, NoiseModel("gaussian", 0.0))
        np.testing.assert_array_equal(out.spectra, image.spectra)

    def test_zero_lambda_identity(self):
        image, _ = generate_ground_truth(SMALL)
        out = add_noise(image, NoiseModel("poisson", 0.0))
        np.testing.assert_array_equal(out.spectra, image.spectra)

    def test_deterministic_per_seed(self):
        image, _ = generate_ground_truth(SMALL)
        a = add_noise(image, NoiseModel("gaussian", 0.3, seed=9))
        b = add_noise(image, NoiseModel("gaussian", 0.3, seed=9))
        c = add_noise(image, NoiseModel("gaussian", 0.3, seed=10))
        np.testing.assert_array_equal(a.spectra, b.spectra)
        assert not np.array_equal(a.spectra, c.spectra)

    def test_gaussian_clamped_non_negative(self):
        image, _ = generate_ground_truth(SMALL)
        out = add_noise(image, NoiseModel("gaussian", 50.0))
        assert out.spectra.min() == 0.0

    def test_gaussian_mean_absolute_change(self):
        # on an everywhere-positive image the clamp almost never binds, so the
        # mean |change| approaches the half-normal mean sd*sqrt(2/pi)
        spec = SimulationSpec(size=30, baseline=5.0)
        image, _ = generate_ground_truth(spec)
        out = add_noise(image, NoiseModel("gaussian", 0.1, seed=4))
        change = np.abs(out.spectra - image.spectra).mean()
        expect = 0.1 * math.sqrt(2.0 / math.pi)
        assert abs(change - expect) <= 0.1 * expect

    def test_poisson_adds_non_negative_integers(self):
        image, _ = generate_ground_truth(SMALL)
        out = add_noise(image, NoiseModel("poisson", 2.0))
        delta = out.spectra - image.spectra
        assert delta.min() >= -1e-12
        # integer draws, recovered through float subtraction
        assert np.max(np.abs(delta - np.round(delta))) < 1e-9

    @pytest.mark.parametrize("lam", [1.0, 30.0])
    def test_poisson_blocks_draw_the_whole_array_stream(self, lam):
        assert [spec.size ** 2 % persistence._BLOCK for spec in BLOCK_SPECS] == [0, 1]
        for spec in BLOCK_SPECS:
            image, _ = generate_ground_truth(spec)
            out = add_noise(image, NoiseModel("poisson", lam, seed=5))
            counts = np.random.default_rng(5).poisson(lam, image.spectra.shape)
            assert out.spectra.tobytes() == (image.spectra + counts).tobytes(), spec.size

    @pytest.mark.parametrize("sd", [0.0, 0.3, 50.0])
    def test_gaussian_blocks_equal_the_whole_draw(self, sd):
        assert [spec.size ** 2 % persistence._BLOCK for spec in BLOCK_SPECS] == [0, 1]
        for spec in BLOCK_SPECS:
            image, _ = generate_ground_truth(spec)
            out = add_noise(image, NoiseModel("gaussian", sd, seed=5))
            rng = np.random.default_rng(5)
            whole = np.maximum(rng.normal(0, sd, image.spectra.shape) + image.spectra, 0)
            assert out.spectra.tobytes() == whole.tobytes(), spec.size


class TestSimulateMeans:
    """The streamed mean grids against the whole-image pipeline, bit for bit."""

    @pytest.mark.parametrize("size", [8, 9, 13])  # 9 and 13 end in a short block
    @pytest.mark.parametrize("model", [NoiseModel("gaussian", 0.3, 7),
                                       NoiseModel("poisson", 2.0, 7), NoiseModel()])
    @pytest.mark.parametrize("baseline", [0.0, 1.5])
    def test_equal_to_mean_image_of_the_full_images(self, size, model, baseline):
        spec = SimulationSpec(size=size, n_mz=400, n_peaks=6, baseline=baseline, seed=4)
        ks = (5.0, 50.0, 100.0)
        image, _ = generate_ground_truth(spec)
        noisy = add_noise(image, model)
        expect = [image, noisy, *(denoise(noisy, k) for k in ks)]
        got = simulate_means(spec, model, ks)
        assert len(got) == len(expect)
        for grid, full in zip(got, expect):
            assert grid.shape == (size, size)
            assert grid.tobytes() == mean_image(full).tobytes()

    def test_each_k_grid_equals_the_grid_of_that_k_alone(self):
        model = NoiseModel("gaussian", 0.2)
        ks = (25.0, 5.0, 100.0, 25.0)
        out = simulate_means(SMALL, model, ks)
        assert len(out) == 2 + len(ks)
        for k, grid in zip(ks, out[2:]):
            assert grid.tobytes() == simulate_means(SMALL, model, (k,))[2].tobytes(), k

    def test_no_k_pairs_no_pixel(self, monkeypatch):
        model = NoiseModel("gaussian", 0.2)
        image, _ = generate_ground_truth(SMALL)
        expect = [mean_image(image), mean_image(add_noise(image, model))]
        calls = []
        pair_block = persistence._pair_block
        monkeypatch.setattr(persistence, "_pair_block",
                            lambda block: calls.append(len(block)) or pair_block(block))
        got = simulate_means(SMALL, model)
        assert calls == []
        assert [grid.tobytes() for grid in got] == [grid.tobytes() for grid in expect]
        simulate_means(SMALL, model, (25.0,))
        assert sum(calls) == SMALL.size ** 2  # the spy sees the pairing when a k asks for it


class TestDenoise:
    def test_row_sparsity_bound(self):
        image, _ = generate_ground_truth(SMALL)
        noisy = add_noise(image, NoiseModel("gaussian", 0.2))
        k = 25.0
        out = denoise(noisy, k)
        for i in range(0, noisy.spectra.shape[0], 17):
            s = Spectrum(mz=noisy.mz, intensity=noisy.spectra[i])
            m_i = len(reduce(transform(s)))
            expect = math.ceil(k * m_i / 100.0)
            assert int(np.count_nonzero(out.spectra[i])) == expect

    def test_noiseless_full_k_support_equals_mask(self):
        image, mask = generate_ground_truth(SMALL)
        out = denoise(image, 100)
        support = mean_image(out) > 0
        np.testing.assert_array_equal(support, mask)

    def test_k_validated(self):
        image, _ = generate_ground_truth(SMALL)
        with pytest.raises(ValueError, match="k must be in"):
            denoise(image, 0)
        with pytest.raises(ValueError, match="k must be in"):
            simulate_means(SMALL, NoiseModel(), (25.0, 0.0))


class TestMemory:
    """The library hands the arrays it makes to MSImage frozen, not copied,
    so each step peaks near one image's bytes, not two."""

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_add_noise_and_denoise_peak_below_one_and_a_half_images(self):
        image, _ = generate_ground_truth(SimulationSpec(size=30, n_mz=1000, n_peaks=20))
        nbytes = image.spectra.nbytes
        noisy, peak = self._peak(lambda: add_noise(image, NoiseModel("gaussian", 0.2)))
        assert peak < 1.5 * nbytes
        cleaned, peak = self._peak(lambda: denoise(noisy, 25))
        assert peak < 1.5 * nbytes
        for out in (image, noisy, cleaned):
            assert not out.spectra.flags.writeable

    def test_poisson_noise_peak_below_one_and_a_half_images(self):
        image, _ = generate_ground_truth(SimulationSpec(size=30, n_mz=1000, n_peaks=20))
        noisy, peak = self._peak(lambda: add_noise(image, NoiseModel("poisson", 1.0)))
        assert peak < 1.5 * image.spectra.nbytes
        assert not noisy.spectra.flags.writeable

    def test_denoise_command_memory_does_not_grow_with_the_image(self, tmp_path):
        # pixels stream through in blocks: 25 MB of spectra at size 30,
        # 56 MB at size 45, and neither is ever held whole
        peaks = {}
        for size in (30, 45):
            argv = ["denoise", "--size", str(size), "--out-dir", str(tmp_path / str(size))]
            rc, peaks[size] = self._peak(lambda: main(argv))
            assert rc == 0
        assert peaks[30] <= 25e6
        assert abs(peaks[45] - peaks[30]) <= 2e6

    def test_denoise_command_holds_one_kernel_block_at_a_time(self, tmp_path):
        # one 8-row block of the 3466-point axis is 0.22 MB, the whole image 25 MB;
        # 64-row blocks paired in 8 kernel passes each peaked at 12.6 MB
        argv = ["denoise", "--size", "30", "--out-dir", str(tmp_path)]
        rc, peak = self._peak(lambda: main(argv))
        assert rc == 0
        assert peak <= 5e6

    def test_input_checks_make_no_input_sized_array(self):
        # a library-made 900 x 3466 array (25 MB) is frozen, not copied, and
        # checked from its min and max: no 3.1 MB mask of it is made either
        spectra = np.random.default_rng(0).random((900, 3466))
        mz = np.linspace(*MZ_RANGE, 3466)
        labels, groups = np.tile([0, 1], 450), tuple(str(i // 90) for i in range(900))
        for make in (lambda: MSImage(30, 30, mz, _Made(spectra)),
                     lambda: LabeledDataset(mz, _Made(spectra), labels, groups)):
            assert self._peak(make)[1] < 1e6
        assert not spectra.flags.writeable  # frozen in place

    def test_outputs_share_the_frozen_mz_axis(self):
        image, _ = generate_ground_truth(SMALL)
        for model in (NoiseModel("gaussian", 0.2), NoiseModel("poisson", 1.0)):
            assert add_noise(image, model).mz is image.mz
        noisy = add_noise(image, NoiseModel("gaussian", 0.2))
        assert denoise(noisy, 25).mz is noisy.mz
        assert not noisy.mz.flags.writeable


class TestMeanImage:
    def test_constant(self):
        spec = SimulationSpec(size=8, n_mz=400, n_peaks=4, baseline=5.0, seed=1)
        image, mask = generate_ground_truth(spec)
        grid = mean_image(image)
        assert grid.shape == (8, 8)
        assert np.all(grid[~mask] == 5.0)

    def test_single_peak_arithmetic(self):
        from topopeaks import MSImage

        row = np.zeros(100)
        row[40] = 3.0
        img = MSImage(1, 1, np.arange(100.0), row[None, :])
        assert mean_image(img)[0, 0] == pytest.approx(3.0 / 100.0)


class TestOtsuAndIoU:
    def test_otsu_separates_bimodal(self):
        values = np.array([0.0] * 50 + [10.0] * 20)
        t = otsu_threshold(values)
        assert 0.0 < t < 10.0

    def test_otsu_constant_input(self):
        assert otsu_threshold(np.full(9, 4.2)) == 4.2

    def test_iou_identical(self):
        m = np.array([[True, False], [False, True]])
        assert mask_iou(m, m) == 1.0

    def test_iou_disjoint(self):
        a = np.array([True, False])
        b = np.array([False, True])
        assert mask_iou(a, b) == 0.0

    def test_iou_half(self):
        a = np.array([True, True, False])
        b = np.array([True, False, True])
        assert mask_iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_iou_both_empty(self):
        z = np.zeros(4, dtype=bool)
        assert mask_iou(z, z) == 1.0

    def test_iou_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            mask_iou(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))

    def test_recovery_degrades_with_noise(self):
        # IoU against the true mask is non-increasing along a noise ladder
        image, mask = generate_ground_truth(SimulationSpec())
        scores = []
        for sd in (0.1, 0.5, 1.5):
            noisy = add_noise(image, NoiseModel("gaussian", sd, seed=5))
            est = recovered_mask(denoise(noisy, 50))
            scores.append(mask_iou(est, mask))
        assert scores[0] >= scores[1] >= scores[2]
        assert scores[0] >= 0.95  # near-clean input recovers the shapes


class TestBenchDenoise:
    def test_single_size_row(self):
        rows = bench_denoise([10], NoiseModel("gaussian", 0.1), k=50,
                             n_mz=400, n_peaks=4)
        assert len(rows) == 1
        r = rows[0]
        assert r.size == 10 and r.pixels == 100
        assert r.seconds > 0
        assert r.seconds_per_pixel == pytest.approx(r.seconds / 100)

    def test_multiple_sizes_ordered_rows(self):
        rows = bench_denoise([8, 12], NoiseModel(), k=50, n_mz=400, n_peaks=4)
        assert [r.size for r in rows] == [8, 12]

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least one size"):
            bench_denoise([], NoiseModel())
