"""Data model and file formats for spectra, labeled datasets, and image grids.

All numeric payloads are float64 numpy arrays, frozen after construction.
CSV is the canonical text format; image grids are written as binary PGM (P5).
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np


class _Made:
    """An array the library has just made and hands to a constructor.

    ``_frozen_f64`` freezes it in place rather than copying it; anything else
    a caller passes is copied.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen_f64(a) -> np.ndarray:
    if isinstance(a, _Made):
        out = np.asarray(a.array, dtype=np.float64)
    else:
        out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


def _finite_range(a: np.ndarray, what: str) -> tuple[float, float]:
    """Least and greatest value of the non-empty array ``a``, whose values must be finite.

    The check reads only ``a.min()`` and ``a.max()``: a NaN propagates into
    both, and +inf or -inf into one of them, so two reductions see every
    value without an input-sized mask or copy.
    """
    lo, hi = a.min(), a.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} must be finite")
    return lo, hi


def _check_finite_nonnegative(a: np.ndarray, what: str) -> tuple[float, float]:
    """``_finite_range`` of ``a``, whose least value must also be at least 0, as -0.0 is."""
    lo, hi = _finite_range(a, what)
    if lo < 0:
        raise ValueError(f"{what} must be non-negative")
    return lo, hi


def _binary_labels(y, n: int) -> np.ndarray:
    """``y`` as n float64 labels, each exactly 0 or 1; a fractional label is rejected."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {y.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    return y


def _check_seed(seed: int) -> None:
    """Reject a negative seed up front: ``numpy.random`` refuses one only when it is used."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _mz_axis(mz) -> np.ndarray:
    """Frozen copy of an m/z axis: one-dimensional, non-empty, finite, strictly increasing."""
    mz = _frozen_f64(mz)
    if mz.ndim != 1 or mz.size == 0:
        raise ValueError("mz must be a one-dimensional axis of at least one point")
    _finite_range(mz, "mz values")
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
        _check_finite_nonnegative(intensity, "intensities")
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
        _check_finite_nonnegative(spectra, "intensities")
        object.__setattr__(self, "mz", mz)
        object.__setattr__(self, "spectra", spectra)


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
        groups = tuple(str(g) for g in self.groups)
        if intensities.ndim != 2 or intensities.shape[1] != mz.size:
            raise ValueError(f"intensities must have shape (n, {mz.size})")
        n = intensities.shape[0]
        if n:
            _check_finite_nonnegative(intensities, "intensities")
        labels = _binary_labels(self.labels, n).astype(np.int64)
        labels.flags.writeable = False
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

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"subset indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64)
        groups = tuple(self.groups[i] for i in idx)
        return LabeledDataset(self.mz, self.intensities[idx], self.labels[idx], groups)


def _csv_rows(path):
    """Yield ``(line number, fields)`` for each CSV row of ``path``, one at a time.

    Standard CSV quoting applies. Lines holding only whitespace are skipped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for fields in reader:
            if len(fields) > 1 or fields and fields[0].strip():
                yield reader.line_num, fields


def _finite_floats(path, lineno, fields) -> list[float]:
    """A row's fields parsed by ``float``, which keeps every value's bits."""
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: line {lineno}: values must be finite")
    return values


def load_spectrum_csv(path) -> Spectrum:
    """Read one spectrum from a headerless two-column ``mz,intensity`` file.

    Rows may appear in any order; they are sorted by m/z. Malformed rows are
    reported with their 1-based line number, duplicate m/z values and negative
    intensities are rejected.
    """
    rows: list[tuple[float, float]] = []
    for lineno, fields in _csv_rows(path):
        if len(fields) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 'mz,intensity'")
        mz, inten = _finite_floats(path, lineno, fields)
        if inten < 0:
            raise ValueError(f"{path}: line {lineno}: negative intensity {inten}")
        rows.append((mz, inten))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    mz, intensity = np.array(sorted(rows)).T
    dup = mz[1:][mz[1:] == mz[:-1]]
    if dup.size:
        raise ValueError(f"{path}: duplicate mz value {dup[0]}")
    return Spectrum(mz, intensity)


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
    rows = _csv_rows(spectra_path)
    lineno, header = next(rows, (0, None))
    if header is None:
        raise ValueError(f"{spectra_path}: empty file")
    mz = _finite_floats(spectra_path, lineno, header)
    if any(b <= a for a, b in zip(mz, mz[1:])):
        raise ValueError(f"{spectra_path}: line {lineno}: mz values must be strictly increasing")
    data = array("d")  # 8 bytes a value, not a Python float each
    for lineno, fields in rows:
        if len(fields) != len(mz):
            raise ValueError(
                f"{spectra_path}: line {lineno}: expected {len(mz)} intensities, got {len(fields)}"
            )
        values = _finite_floats(spectra_path, lineno, fields)
        if min(values) < 0:
            raise ValueError(f"{spectra_path}: line {lineno}: negative intensity {min(values)}")
        data.extend(values)
    intensities = np.frombuffer(data).reshape(-1, len(mz))
    labels, groups = [], []
    for lineno, fields in _csv_rows(labels_path):
        if len(fields) != 2:
            raise ValueError(f"{labels_path}: line {lineno}: expected 'label,group'")
        if fields[0].strip() not in ("0", "1"):
            raise ValueError(f"{labels_path}: line {lineno}: label must be 0 or 1, "
                             f"got {fields[0]!r}")
        labels.append(int(fields[0]))
        groups.append(fields[1].strip())
    if len(labels) != len(intensities):
        raise ValueError(
            f"label count {len(labels)} does not match spectrum count {len(intensities)}"
        )
    return LabeledDataset(mz, _Made(intensities), labels, groups)


def write_pgm(grid, path) -> None:
    """Write a 2-D grid as a binary PGM (P5, maxval 255).

    Values are min-max scaled to 0..255 with round-half-up, for any finite
    non-negative grid; a constant grid maps to all zeros.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("grid must be two-dimensional")
    lo, hi = _check_finite_nonnegative(grid, "grid values")
    span = hi - lo
    if span == 0:
        pixels = np.zeros(grid.shape, dtype=np.uint8)
    else:
        shifted = grid - lo
        if math.isinf(255.0 * float(span)):
            # 255 * span passes the float range: scale both by 2**-8, which
            # keeps every ratio that can round to a non-zero pixel exact
            shifted *= 2.0**-8
            span *= 2.0**-8
        scaled = 255.0 * shifted / span
        pixels = np.floor(scaled + 0.5).astype(np.uint8)
    h, w = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())

