"""Shared builders for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from topopeaks import LabeledDataset, Spectrum
from topopeaks.persistence import _extrema_runs


def mk(values, mz=None) -> Spectrum:
    """Spectrum over an integer grid unless an explicit axis is given."""
    values = np.asarray(values, dtype=float)
    if mz is None:
        mz = np.arange(values.size, dtype=float)
    return Spectrum(mz=mz, intensity=values)


def gaussian_bumps(q, centers, heights, sigma=1.5):
    grid = np.arange(q, dtype=float)
    out = np.zeros(q)
    for c, h in zip(centers, heights):
        out += h * np.exp(-((grid - c) ** 2) / (2.0 * sigma**2))
    return out


def two_class_dataset(n=80, q=60, seed=7, n_groups=4) -> LabeledDataset:
    """Separable synthetic cohort: shared bumps plus one class-coded bump.

    Groups are contiguous blocks so every group carries both classes.
    """
    rng = np.random.default_rng(seed)
    mz = np.linspace(200.0, 800.0, q)
    common = [(10, 3.0), (25, 2.5), (45, 3.5)]
    rows = np.empty((n, q))
    labels = np.empty(n, dtype=np.int64)
    groups = []
    block = n // n_groups
    for i in range(n):
        lab = i % 2
        heights = [h + rng.normal(0.0, 0.2) for _, h in common]
        centers = [c for c, _ in common]
        centers.append(33)
        heights.append(5.0 + rng.normal(0.0, 0.3) if lab else 1.5 + rng.normal(0.0, 0.3))
        row = gaussian_bumps(q, centers, heights)
        row += np.maximum(rng.normal(0.0, 0.05, size=q), 0.0)
        rows[i] = row
        labels[i] = lab
        groups.append(f"g{i // block}")
    return LabeledDataset(mz=mz, intensities=rows, labels=labels, groups=tuple(groups))


@dataclass(frozen=True)
class ExtremaSet:
    """Local extrema of a spectrum, as positions into the intensity array.

    ``maxima`` is sorted by descending intensity (ties by ascending position),
    ``minima`` by ascending intensity (same tie rule). A run of equal values
    bordered by strictly smaller (larger) neighbours counts as one maximum
    (minimum) anchored at its leftmost position; an endpoint is an extremum
    only when strictly above or below its single neighbour. A constant
    spectrum has one maximum at position 0 and no minima.
    """

    maxima: tuple[int, ...]
    minima: tuple[int, ...]


def detect_extrema(spectrum: Spectrum) -> ExtremaSet:
    """Find local maxima and minima of a spectrum, plateau runs collapsed."""
    values = spectrum.intensity
    max_pos, min_pos = _extrema_runs(values)
    maxima = tuple(sorted(max_pos, key=lambda p: (-values[p], p)))
    minima = tuple(sorted(min_pos, key=lambda p: (values[p], p)))
    return ExtremaSet(maxima, minima)


def to_persistence_vector(pairs, q: int) -> np.ndarray:
    """Place each pair's persistence at its position in a length-q zero vector."""
    vec = np.zeros(int(q))
    for p in pairs:
        if not 0 <= p.position < q:
            raise ValueError(f"position {p.position} outside spectrum of length {q}")
        vec[p.position] = p.persistence
    return vec


def read_pgm(path) -> np.ndarray:
    """Read back a binary PGM written by ``write_pgm``."""
    raw = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    data = raw[pos + 1 : pos + 1 + w * h]
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)
