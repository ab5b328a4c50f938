"""Shared builders for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from topopeaks import LabeledDataset, Spectrum


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
