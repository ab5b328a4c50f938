"""Synthetic mass-spectrometry images: generation, noise, denoising, benchmarks.

A ground-truth image carries two disjoint regions, a filled circle in the
top-left quadrant and a square in the bottom-right, each with its own half of
the peak set. Every pixel of a region shares that region's noiseless
spectrum; background pixels hold the flat baseline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import MSImage, _Made, _check_finite_nonnegative, _check_seed
from .persistence import _BLOCK, _check_k, _topk_vectors

MZ_RANGE = (500.0, 2000.0)  # the m/z axis spans this range
PEAK_SIGMA = 2.0  # Gaussian peak width, in axis steps
_EDGE = 15  # keep peaks this many axis steps away from the axis ends
_GAP = 10  # minimum distance between peak positions, in axis steps
_BENCH_ROUNDS = 7  # bench_denoise reports the median of this many calls per size


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of one synthetic image."""

    size: int = 30
    n_mz: int = 3466
    n_peaks: int = 50
    baseline: float = 0.0
    seed: int = 1234

    def __post_init__(self):
        if self.size < 8:
            raise ValueError("size must be at least 8 so the regions stay disjoint")
        if self.n_peaks < 2:
            raise ValueError("need at least 2 peaks, one per region")
        if not (math.isfinite(self.baseline) and self.baseline >= 0):
            raise ValueError("baseline must be finite and non-negative")
        _check_seed(self.seed)
        slots = self.n_mz - 2 * _EDGE - (self.n_peaks - 1) * _GAP
        if slots < self.n_peaks:
            raise ValueError(
                f"n_mz={self.n_mz} too small for {self.n_peaks} separated peaks"
            )


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise: ``gaussian`` uses sd=level, ``poisson`` uses lam=level."""

    kind: str = "none"
    level: float = 0.0
    seed: int = 1234

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "poisson"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (math.isfinite(self.level) and self.level >= 0):
            raise ValueError("noise level must be finite and non-negative")
        _check_seed(self.seed)


def _region_masks(size: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.mgrid[0:size, 0:size]
    center = size * 0.25
    radius = size * 0.18
    circle = (rows - center) ** 2 + (cols - center) ** 2 <= radius**2
    lo = round(size * 0.58)
    hi = round(size * 0.88)
    square = (rows >= lo) & (rows < hi) & (cols >= lo) & (cols < hi)
    return circle, square


def _simulation(spec: SimulationSpec):
    """The m/z axis, the region mask and a function giving ground-truth rows.

    ``truth(s, e)`` returns a fresh (e - s, n_mz) array holding the spectra
    of pixels s..e-1 in row-major order; rows of any split of the pixels
    have the same bits as the rows of the whole image.
    """
    rng = np.random.default_rng(spec.seed)
    slots = spec.n_mz - 2 * _EDGE - (spec.n_peaks - 1) * _GAP
    base = np.sort(rng.choice(slots, size=spec.n_peaks, replace=False))
    peak_idx = _EDGE + base + _GAP * np.arange(spec.n_peaks)
    heights = rng.uniform(1.0, 10.0, spec.n_peaks)
    assign = rng.permutation(spec.n_peaks)
    circle_ids = assign[: spec.n_peaks // 2]
    square_ids = assign[spec.n_peaks // 2 :]

    axis = np.arange(spec.n_mz, dtype=np.float64)

    def region_spectrum(ids: np.ndarray) -> np.ndarray:
        offsets = axis[None, :] - peak_idx[ids][:, None]
        shapes = np.exp(-(offsets**2) / (2.0 * PEAK_SIGMA**2))
        return spec.baseline + heights[ids] @ shapes

    circle_mask, square_mask = _region_masks(spec.size)
    if (circle_mask & square_mask).any():
        raise RuntimeError("region masks overlap")
    circle, square = circle_mask.ravel(), square_mask.ravel()
    circle_spectrum = region_spectrum(circle_ids)
    square_spectrum = region_spectrum(square_ids)

    def truth(s: int, e: int) -> np.ndarray:
        rows = np.full((e - s, spec.n_mz), float(spec.baseline))
        rows[circle[s:e]] = circle_spectrum
        rows[square[s:e]] = square_spectrum
        return rows

    mz = np.linspace(MZ_RANGE[0], MZ_RANGE[1], spec.n_mz)
    return mz, circle_mask | square_mask, truth


def generate_ground_truth(spec: SimulationSpec) -> tuple[MSImage, np.ndarray]:
    """Noiseless image plus the boolean mask of its two regions.

    Peak positions are drawn uniformly over the axis subject to a minimum
    separation of 10 steps (so every peak is a distinct spectral mode), peak
    heights uniformly from [1, 10]; a random half of the peaks goes to the
    circle, the rest to the square. Identical specs give bit-identical output.
    """
    mz, mask, truth = _simulation(spec)
    image = MSImage(spec.size, spec.size, mz, _Made(truth(0, spec.size * spec.size)))
    return image, mask


def _noisy(rng: np.random.Generator, rows: np.ndarray, model: NoiseModel,
           out: np.ndarray) -> np.ndarray:
    """Write ``rows`` plus the next block of ``rng``'s noise stream into ``out``.

    Successive blocks draw the same stream as one draw over the whole image.
    """
    if model.kind == "gaussian":
        rng.standard_normal(out=out)
        out *= model.level
        out += rows
        np.maximum(out, 0.0, out=out)
    else:
        # integer counts, drawn per block so no image-sized int64 array is made
        np.add(rows, rng.poisson(model.level, rows.shape), out=out)
    return out


def add_noise(image: MSImage, model: NoiseModel) -> MSImage:
    """Additive noise per bin; Gaussian draws are clamped at zero."""
    if model.kind == "none":
        return image
    rng = np.random.default_rng(model.seed)
    spectra = image.spectra
    noisy = np.empty(spectra.shape)
    for s in range(0, spectra.shape[0], _BLOCK):
        _noisy(rng, spectra[s:s + _BLOCK], model, noisy[s:s + _BLOCK])
    return MSImage(image.width, image.height, _Made(image.mz), _Made(noisy))


def simulate_means(spec: SimulationSpec, model: NoiseModel, ks=()) -> tuple[np.ndarray, ...]:
    """Mean grids of the ground truth, the noisy image and its denoised image per k.

    The grids equal :func:`mean_image` of :func:`generate_ground_truth`,
    :func:`add_noise` and :func:`denoise` at each k of ``ks``, bit for bit,
    but the pixels stream through in the pairing kernel's blocks of
    ``_BLOCK`` rows: a block is made, noised, paired in one kernel pass for
    all of ``ks`` (not at all when it is empty) and reduced to its row
    means, so memory does not grow with the image.
    """
    ks = tuple(map(_check_k, ks))
    _, _, truth = _simulation(spec)
    n_px = spec.size * spec.size
    rng = np.random.default_rng(model.seed)
    means = np.empty((2 + len(ks), n_px))
    for s in range(0, n_px, _BLOCK):
        e = min(s + _BLOCK, n_px)
        rows = truth(s, e)
        noisy = rows if model.kind == "none" else _noisy(rng, rows, model, np.empty_like(rows))
        _check_finite_nonnegative(noisy, "intensities")
        cleaned = _topk_vectors(noisy, ks) if ks else ()
        for grid, block in zip(means[:, s:e], (rows, noisy, *cleaned)):
            grid[:] = block.mean(axis=1)
    return tuple(grid.reshape(spec.size, spec.size) for grid in means)


def denoise(image: MSImage, k, workers: int = 1) -> MSImage:
    """Replace each pixel spectrum by its top-k% persistence vector, for one k.

    The output spectrum is zero except at retained peak positions, which carry
    their persistence values; the result is deterministic. Several k over one
    simulated image go through :func:`simulate_means`, which pairs each block
    of pixels once for all of them. ``workers`` is accepted and ignored: all pixels go through one
    batched kernel in this process, and the parameter remains only because
    the benchmark's output check (bench/workloads.py) still passes
    ``workers=1``.
    """
    rows, = _topk_vectors(image.spectra, (k,))
    return MSImage(image.width, image.height, _Made(image.mz), _Made(rows))


def mean_image(image: MSImage) -> np.ndarray:
    """Per-pixel mean intensity as a (height, width) grid."""
    return image.spectra.mean(axis=1).reshape(image.height, image.width)


def otsu_threshold(values: np.ndarray) -> float:
    """Otsu's threshold over a 256-bin histogram of the values."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("cannot threshold empty input")
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        return lo
    hist, edges = np.histogram(v, bins=256, range=(lo, hi))
    centers = (edges[:-1] + edges[1:]) / 2.0
    w0 = np.cumsum(hist).astype(np.float64)
    w1 = v.size - w0
    sum0 = np.cumsum(hist * centers)
    total = sum0[-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        mu0 = sum0 / w0
        mu1 = (total - sum0) / w1
        var_b = w0 * w1 * (mu0 - mu1) ** 2
    var_b[(w0 == 0) | (w1 == 0)] = -np.inf
    return float(edges[int(np.argmax(var_b)) + 1])


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two boolean masks (1.0 when both are empty)."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError("masks must have the same shape")
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def recovered_mask(image: MSImage) -> np.ndarray:
    """Binary region estimate: Otsu threshold on the mean-intensity image."""
    mean = mean_image(image)
    return mean > otsu_threshold(mean)


@dataclass(frozen=True)
class BenchResult:
    size: int
    pixels: int
    seconds: float
    seconds_per_pixel: float


def bench_denoise(sizes, noise: NoiseModel, k=25.0, *, baseline: float = 0.0,
                  n_mz: int = 3466, n_peaks: int = 50,
                  seed: int = 1234) -> list[BenchResult]:
    """Wall-clock denoising time per image size, one row per size.

    Each size's time is the median of seven ``denoise`` calls, one per round
    over all sizes, each on a freshly simulated noisy image. A shared
    machine's throughput drifts over seconds; every size then samples the
    same spells, so the drift cancels from the ratios between sizes, and
    the median ignores a call that a stall slowed.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("need at least one size")
    k = _check_k(k)
    specs = [SimulationSpec(size=size, baseline=baseline, n_mz=n_mz,
                            n_peaks=n_peaks, seed=seed) for size in sizes]
    times = np.empty((_BENCH_ROUNDS, len(specs)))
    for r in range(_BENCH_ROUNDS):
        for i, spec in enumerate(specs):
            noisy = add_noise(generate_ground_truth(spec)[0], noise)
            t0 = time.perf_counter()
            denoise(noisy, k)
            times[r, i] = time.perf_counter() - t0
    median = np.median(times, axis=0).tolist()
    return [BenchResult(size, size * size, dt, dt / (size * size))
            for size, dt in zip(sizes, median)]
