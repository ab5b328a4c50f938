"""Data model and file formats for spectra, labeled datasets, and image grids.

All numeric payloads are float64 numpy arrays, frozen after construction.
CSV is the canonical text format; image grids are written as binary PGM (P5).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


def _frozen_f64(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


def _mz_axis(mz) -> np.ndarray:
    """Frozen copy of an m/z axis: one-dimensional, non-empty, finite, strictly increasing."""
    mz = _frozen_f64(mz)
    if mz.ndim != 1 or mz.size == 0:
        raise ValueError("mz must be a one-dimensional axis of at least one point")
    if not np.all(np.isfinite(mz)):
        raise ValueError("mz values must be finite")
    if np.any(np.diff(mz) <= 0):
        raise ValueError("mz values must be strictly increasing")
    return mz


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One spectrum: strictly increasing m/z axis with non-negative intensities."""

    mz: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        mz = _mz_axis(self.mz)
        intensity = _frozen_f64(self.intensity)
        if intensity.ndim != 1:
            raise ValueError("intensity must be one-dimensional")
        if mz.size != intensity.size:
            raise ValueError(
                f"mz and intensity lengths differ: {mz.size} != {intensity.size}"
            )
        if not np.all(np.isfinite(intensity)):
            raise ValueError("intensities must be finite")
        if np.any(intensity < 0):
            raise ValueError("intensities must be non-negative")
        object.__setattr__(self, "mz", mz)
        object.__setattr__(self, "intensity", intensity)

    def __len__(self) -> int:
        return self.mz.size


@dataclass(frozen=True, eq=False)
class MSImage:
    """A rectangular grid of spectra on one shared m/z axis.

    ``spectra`` holds one row per pixel in row-major order, so pixel
    (row, col) lives at index ``row * width + col``.
    """

    width: int
    height: int
    mz: np.ndarray
    spectra: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        mz = _mz_axis(self.mz)
        spectra = _frozen_f64(self.spectra)
        if spectra.shape != (self.width * self.height, mz.size):
            raise ValueError(
                f"spectra must have shape {(self.width * self.height, mz.size)}, "
                f"got {spectra.shape}"
            )
        if not np.all(np.isfinite(spectra)):
            raise ValueError("intensities must be finite")
        if np.any(spectra < 0):
            raise ValueError("intensities must be non-negative")
        object.__setattr__(self, "mz", mz)
        object.__setattr__(self, "spectra", spectra)

    def pixel(self, row: int, col: int) -> np.ndarray:
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise IndexError(f"pixel ({row}, {col}) outside {self.height}x{self.width} grid")
        return self.spectra[row * self.width + col]


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """n spectra on a shared axis with binary labels and a group id per spectrum."""

    mz: np.ndarray
    intensities: np.ndarray
    labels: np.ndarray
    groups: tuple[str, ...]

    def __post_init__(self):
        mz = _mz_axis(self.mz)
        intensities = _frozen_f64(self.intensities)
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        labels.flags.writeable = False
        groups = tuple(str(g) for g in self.groups)
        if intensities.ndim != 2 or intensities.shape[1] != mz.size:
            raise ValueError(f"intensities must have shape (n, {mz.size})")
        if not np.all(np.isfinite(intensities)) or np.any(intensities < 0):
            raise ValueError("intensities must be finite and non-negative")
        n = intensities.shape[0]
        if labels.shape != (n,):
            raise ValueError(f"expected {n} labels, got {labels.shape}")
        if labels.size and not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be 0 or 1")
        if len(groups) != n:
            raise ValueError(f"expected {n} group ids, got {len(groups)}")
        object.__setattr__(self, "mz", mz)
        object.__setattr__(self, "intensities", intensities)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return self.intensities.shape[0]

    @property
    def q(self) -> int:
        return self.mz.size

    def spectrum(self, i: int) -> Spectrum:
        return Spectrum(self.mz, self.intensities[i])

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx, dtype=np.int64)
        groups = tuple(self.groups[i] for i in idx)
        return LabeledDataset(self.mz, self.intensities[idx], self.labels[idx], groups)


def load_spectrum_csv(path) -> Spectrum:
    """Read one spectrum from a headerless two-column ``mz,intensity`` file.

    Rows may appear in any order; they are sorted by m/z. Malformed rows are
    reported with their 1-based line number, duplicate m/z values and negative
    intensities are rejected.
    """
    rows: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'mz,intensity'")
            try:
                mz, inten = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected 'mz,intensity'") from None
            if not (np.isfinite(mz) and np.isfinite(inten)):
                raise ValueError(f"{path}: line {lineno}: values must be finite")
            if inten < 0:
                raise ValueError(f"{path}: line {lineno}: negative intensity {inten}")
            rows.append((mz, inten))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    mz = np.array([r[0] for r in rows])
    if mz.size > 1 and np.any(np.diff(mz) == 0):
        dup = mz[:-1][np.diff(mz) == 0][0]
        raise ValueError(f"{path}: duplicate mz value {dup}")
    return Spectrum(mz, np.array([r[1] for r in rows]))


def _write_csv(path, rows, header=None) -> None:
    """Write ``header`` (if given), then ``rows``, as comma-joined ``str`` fields.

    ``str`` of a Python float is the shortest repr that reads back to it.
    """
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(map(str, header)) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Write a spectrum as headerless ``mz,intensity`` rows (round-trips exactly)."""
    _write_csv(path, zip(spectrum.mz.tolist(), spectrum.intensity.tolist()))


def load_dataset_csv(spectra_path, labels_path) -> LabeledDataset:
    """Read a labeled dataset from two CSV files.

    ``spectra_path``: header row of q m/z values, then one intensity row per
    spectrum. ``labels_path``: one ``label,group`` row per spectrum, same order,
    labels restricted to 0/1.
    """
    with open(spectra_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{spectra_path}: empty file") from None
        try:
            mz = np.array([float(v) for v in header])
        except ValueError:
            raise ValueError(f"{spectra_path}: line 1: header must list mz values") from None
        q = mz.size
        data: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != q:
                raise ValueError(
                    f"{spectra_path}: line {lineno}: expected {q} intensities, got {len(row)}"
                )
            try:
                data.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{spectra_path}: line {lineno}: non-numeric intensity") from None

    labels: list[int] = []
    groups: list[str] = []
    with open(labels_path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{labels_path}: line {lineno}: expected 'label,group'")
            if parts[0] not in ("0", "1"):
                raise ValueError(
                    f"{labels_path}: line {lineno}: label must be 0 or 1, got {parts[0]!r}"
                )
            labels.append(int(parts[0]))
            groups.append(parts[1])
    if len(labels) != len(data):
        raise ValueError(
            f"label count {len(labels)} does not match spectrum count {len(data)}"
        )
    intensities = np.array(data) if data else np.zeros((0, q))
    return LabeledDataset(mz, intensities, np.array(labels, dtype=np.int64), tuple(groups))


def write_pgm(grid, path) -> None:
    """Write a 2-D grid as a binary PGM (P5, maxval 255).

    Values are min-max scaled to 0..255 with round-half-up; a constant grid
    maps to all zeros.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("grid must be two-dimensional")
    if not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ValueError("grid values must be finite and non-negative")
    lo = grid.min()
    span = grid.max() - lo
    if span == 0:
        pixels = np.zeros(grid.shape, dtype=np.uint8)
    else:
        scaled = 255.0 * (grid - lo) / span
        pixels = np.floor(scaled + 0.5).astype(np.uint8)
    h, w = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())

