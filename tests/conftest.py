"""Shared builders for the test suite."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import topopeaks
from topopeaks import LabeledDataset, Spectrum
from topopeaks.persistence import _extrema_runs


def run_fresh(script: str, *args: str, env=None, flags=(), timeout=60):
    """Run ``script`` in a fresh interpreter on this package; return its JSON stdout.

    For checks of what belongs to the whole process: the modules loaded, the
    allocator's state, string hashing, or a run that must end within
    ``timeout`` seconds. ``env`` adds to the environment, ``flags`` go to the
    interpreter before ``-c``.
    """
    src = str(Path(topopeaks.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, *flags, "-c", script, *args],
                          env={**os.environ, "PYTHONPATH": src, **(env or {})},
                          capture_output=True, text=True, check=True, timeout=timeout)
    return json.loads(done.stdout)


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


# Binary lifting over range tables as wide as the row: the differential
# reference for persistence._pair_block, which jumps over the peaks instead.
def reference_pair_block(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row, position, persistence and death of every positive-persistence peak of a block.

    The peaks come grouped by row, in position order within a row, as
    ``np.nonzero`` finds them.
    """
    b, q = rows.shape
    # Each row padded with +inf at both ends: a window that reaches past the
    # row holds an inf and is never taken, and the right search always stops.
    # Sparse tables: level l holds the max (min) of the window of length 2**l
    # starting at each padded position, +inf where the window leaves the row.
    width = q + 2
    levels = width.bit_length()
    hi = np.full((levels, b, width), np.inf)
    lo = np.full((levels, b, width), np.inf)
    hi[0, :, 1:-1] = rows
    lo[0, :, 1:-1] = rows
    for level in range(1, levels):
        span = 1 << (level - 1)
        fit = width - 2 * span + 1
        np.maximum(hi[level - 1, :, :fit], hi[level - 1, :, span:span + fit],
                   out=hi[level, :, :fit])
        np.minimum(lo[level - 1, :, :fit], lo[level - 1, :, span:span + fit],
                   out=lo[level, :, :fit])
    hi = hi.reshape(levels, -1)
    lo = lo.reshape(levels, -1)

    # Peaks: local maxima of the total order (-value, position), i.e. above
    # the left neighbour and not below the right one. A plateau that rises
    # again yields a zero-persistence peak, dropped below.
    is_peak = np.ones((b, q), dtype=bool)
    is_peak[:, 1:] = rows[:, 1:] > rows[:, :-1]
    is_peak[:, :-1] &= rows[:, :-1] >= rows[:, 1:]
    row, pos = np.nonzero(is_peak)
    birth = rows[row, pos]
    row_at = row * width  # flat index where each peak's padded row starts

    # Nearest elder on each side by binary lifting: take every window, longest
    # first, that holds no elder (left: no value >= birth; right: none >
    # birth). The taken windows tile the span to the elder, so the minimum of
    # their range-minima is the saddle on that side.
    left = row_at + pos + 1  # the left windows end here, at the peak
    right = left + 1  # and the right ones start here
    left_min = np.full(pos.size, np.inf)
    right_min = np.full(pos.size, np.inf)
    for level in range(levels - 1, -1, -1):
        w = 1 << level
        at = np.maximum(left - w, row_at)
        take = hi[level, at] < birth
        left_min = np.where(take, np.minimum(left_min, lo[level, at]), left_min)
        left -= take * w
        take = hi[level, right] <= birth
        right_min = np.where(take, np.minimum(right_min, lo[level, right]), right_min)
        right += take * w
    has_left = left - row_at > 1
    has_right = right - row_at < q + 1
    death = np.where(has_left & has_right, np.maximum(left_min, right_min),
                     np.where(has_left, left_min,
                              np.where(has_right, right_min, rows.min(axis=1)[row])))
    pers = birth - death
    alive = pers > 0.0
    return row[alive], pos[alive], pers[alive], death[alive]


# A plain elder search along each row, one peak and side at a time: the
# byte-for-byte reference for persistence._pair_block, zero signs included.
def sequential_pair_block(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row, position, persistence and death of every positive-persistence peak of a block.

    Peaks are found by the kernel's extrema rule: above the left neighbour
    (position 0: not below the right one) and not below the right one. The
    valley between two neighbouring peaks is read at the rightmost of its
    lowest values. Each side folds its valleys near to far with
    ``np.minimum`` and stops at its elder (left: as tall or taller; right:
    taller), at a valley at the row minimum (only in rows with no sign bit
    set), or at the row end, where it folds in -inf. The death is
    ``np.maximum(left, right)``, or the row minimum, read at its rightmost
    lowest value, where that is -inf.
    """
    out = ([], [], [], [])
    for r, x in enumerate(np.asarray(rows, dtype=np.float64).tolist()):
        q = len(x)

        def rightmost_lowest(lo, hi):
            best = x[lo]
            for v in x[lo + 1:hi]:
                if v <= best:
                    best = v
            return best

        peaks = [i for i in range(q)
                 if (x[i] > x[i - 1] if i else q == 1 or x[0] >= x[1])
                 and (i == q - 1 or x[i] >= x[i + 1])]
        valleys = [rightmost_lowest(p + 1, s) for p, s in zip(peaks, peaks[1:])]
        lowest = rightmost_lowest(0, q)
        signed = any(math.copysign(1.0, v) < 0 for v in x)

        def search(k, step):
            b = x[peaks[k]]
            low = np.inf
            while 0 <= k + step < len(peaks):
                v = valleys[min(k, k + step)]
                low = np.minimum(low, v)
                k += step
                h = x[peaks[k]]
                if (h >= b if step < 0 else h > b) or (not signed and v == lowest):
                    return low
            return np.minimum(low, -np.inf)

        for k, p in enumerate(peaks):
            death = np.maximum(search(k, -1), search(k, 1))
            if death == -np.inf:
                death = np.float64(lowest)
            if x[p] - death > 0.0:
                for a, v in zip(out, (r, p, x[p] - death, death)):
                    a.append(v)
    return (np.array(out[0], dtype=np.intp), np.array(out[1], dtype=np.intp),
            np.array(out[2], dtype=np.float64), np.array(out[3], dtype=np.float64))


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
