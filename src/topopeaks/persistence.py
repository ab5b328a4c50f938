"""Topological persistence of 1-D spectra.

Peaks are tracked through the family of upper-level sets {x : f(x) >= a} as
the threshold a sweeps downward. Each local maximum births a connected
component; when two components meet at a local minimum the one with the lower
birth dies there (elder rule, ties going to the smaller position), and the
component of the global maximum dies at the global minimum of f. A peak's
persistence is its birth minus its death.

Two independent routes compute the same pairing:

* :func:`transform` splits the axis recursively at pairing minima, driven by
  an explicit work stack and rank-ordered maxima.
* :func:`oracle_transform` performs a literal threshold sweep with interval
  components.

Their outputs agree exactly, triple for triple.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Spectrum, _write_csv
from .diagram import PersistenceDiagram


class FeatureTriple(NamedTuple):
    position: int
    birth: float
    death: float


class PersistencePair(NamedTuple):
    position: int
    persistence: float


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


def _extrema_runs(values: np.ndarray) -> tuple[list[int], list[int]]:
    """Anchor positions of maximum and minimum runs, in axis order."""
    q = values.size
    if q == 1:
        return [0], []
    change = np.flatnonzero(np.diff(values))
    if change.size == 0:
        return [0], []
    starts = np.concatenate(([0], change + 1))
    run_values = values[starts]
    rising = run_values[1:] > run_values[:-1]
    nruns = starts.size
    is_max = np.empty(nruns, dtype=bool)
    is_min = np.empty(nruns, dtype=bool)
    is_max[0] = not rising[0]
    is_min[0] = rising[0]
    is_max[-1] = rising[-1]
    is_min[-1] = not rising[-1]
    if nruns > 2:
        is_max[1:-1] = rising[:-1] & ~rising[1:]
        is_min[1:-1] = ~rising[:-1] & rising[1:]
    return starts[is_max].tolist(), starts[is_min].tolist()


def detect_extrema(spectrum: Spectrum) -> ExtremaSet:
    """Find local maxima and minima of a spectrum, plateau runs collapsed."""
    values = spectrum.intensity
    max_pos, min_pos = _extrema_runs(values)
    maxima = tuple(sorted(max_pos, key=lambda p: (-values[p], p)))
    minima = tuple(sorted(min_pos, key=lambda p: (values[p], p)))
    return ExtremaSet(maxima, minima)


def _transform_values(values: np.ndarray) -> list[FeatureTriple]:
    """Pair every local maximum with its death level.

    Maxima are processed in rank order (taller first, ties to the left). The
    top-ranked maximum of an axis interval is its elder; the next one pairs at
    the smallest minimum strictly between the two (leftmost among equals), and
    that minimum splits the interval into two independent subproblems. An
    explicit stack replaces recursion so spectra with many peaks cannot
    exhaust the interpreter stack.
    """
    values = np.asarray(values, dtype=np.float64)
    max_pos, min_pos = _extrema_runs(values)
    global_min = float(values.min())
    if len(max_pos) == 1:
        p = max_pos[0]
        return [FeatureTriple(p, float(values[p]), global_min)]

    ranked = sorted(max_pos, key=lambda p: (-values[p], p))
    min_val = [float(values[p]) for p in min_pos]
    out = [FeatureTriple(ranked[0], float(values[ranked[0]]), global_min)]

    # (rank-ordered maxima, elder position, admissible minima index range)
    stack: list[tuple[list[int], int, int, int]] = [
        (ranked[1:], ranked[0], 0, len(min_pos))
    ]
    while stack:
        peaks, elder, mlo, mhi = stack.pop()
        x = peaks[0]
        rest = peaks[1:]
        a, b = (x, elder) if x < elder else (elder, x)
        i = bisect_left(min_pos, a, mlo, mhi)
        j = bisect_left(min_pos, b, i, mhi)
        best = i
        best_val = min_val[i]
        for t in range(i + 1, j):
            v = min_val[t]
            if v < best_val:
                best_val = v
                best = t
        out.append(FeatureTriple(x, float(values[x]), best_val))
        if rest:
            split = min_pos[best]
            left = [p for p in rest if p < split]
            right = [p for p in rest if p > split]
            left_elder, right_elder = (x, elder) if x < elder else (elder, x)
            if left:
                stack.append((left, left_elder, mlo, best))
            if right:
                stack.append((right, right_elder, best + 1, mhi))
    out.sort(key=lambda tr: (-tr.birth, tr.position))
    return out


def transform(spectrum: Spectrum) -> list[FeatureTriple]:
    """Persistence transformation: one (position, birth, death) per maximum.

    The result is sorted by descending birth, ties by ascending position.
    """
    return _transform_values(spectrum.intensity)


def _oracle_values(values: np.ndarray) -> list[FeatureTriple]:
    """Reference pairing by literal downward threshold sweep.

    Positions enter by descending value (ascending position among equals) and
    components are tracked as intervals via their endpoint cells. A merge
    kills the component with the lower birth (ties to the larger peak
    position); merges at the dying component's own birth level are plateau
    artifacts, not peaks, and are dropped.
    """
    values = np.asarray(values, dtype=np.float64)
    q = values.size
    order = sorted(range(q), key=lambda i: (-values[i], i))
    comp: list[list | None] = [None] * q
    out: list[FeatureTriple] = []
    for i in order:
        v = float(values[i])
        left = comp[i - 1] if i > 0 else None
        right = comp[i + 1] if i < q - 1 else None
        if left is None and right is None:
            comp[i] = [v, i, i, i]  # birth, peak position, left end, right end
        elif right is None:
            left[3] = i
            comp[i] = left
        elif left is None:
            right[2] = i
            comp[i] = right
        else:
            if (-left[0], left[1]) <= (-right[0], right[1]):
                winner, loser = left, right
            else:
                winner, loser = right, left
            if loser[0] > v:
                out.append(FeatureTriple(loser[1], loser[0], v))
            winner[2] = min(left[2], right[2])
            winner[3] = max(left[3], right[3])
            comp[i] = winner
            comp[winner[2]] = winner
            comp[winner[3]] = winner
    survivor = comp[order[0]]
    out.append(FeatureTriple(survivor[1], survivor[0], float(values.min())))
    out.sort(key=lambda tr: (-tr.birth, tr.position))
    return out


def oracle_transform(spectrum: Spectrum) -> list[FeatureTriple]:
    """Same pairing as :func:`transform`, computed by threshold sweep."""
    return _oracle_values(spectrum.intensity)


def reduce(triples) -> list[PersistencePair]:
    """Keep position and persistence only; zero-persistence features drop out."""
    out = []
    for t in triples:
        p = t.birth - t.death
        if p > 0.0:
            out.append(PersistencePair(t.position, p))
    return out


def to_diagram(triples) -> PersistenceDiagram:
    """Forget positions: the multiset of (birth, death) points."""
    return PersistenceDiagram(tuple((t.birth, t.death) for t in triples))


def _check_k(k) -> float:
    k = float(k)
    if not 0.0 < k <= 100.0:
        raise ValueError(f"k must be in (0, 100], got {k}")
    return k


def filter_top_k(pairs, k) -> list[PersistencePair]:
    """Keep the ceil(k% of |pairs|) most persistent pairs.

    Ties are broken by ascending position; the kept pairs are returned in
    axis order. Selections are nested: a smaller k keeps a subset of what a
    larger k keeps.
    """
    k = _check_k(k)
    pairs = list(pairs)
    keep = math.ceil(k * len(pairs) / 100.0)
    chosen = sorted(pairs, key=lambda p: (-p.persistence, p.position))[:keep]
    chosen.sort(key=lambda p: p.position)
    return chosen


_BLOCK = 8  # rows per kernel pass; bounds the sparse tables' memory


def _topk_block(rows: np.ndarray, k: float) -> np.ndarray:
    """:func:`_topk_vectors` for one block of rows."""
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
    row, pos, pers = row[alive], pos[alive], pers[alive]

    # Top-k per row: most persistent first, ties to the smaller position.
    counts = np.bincount(row, minlength=b)
    keep = np.ceil(k * counts / 100.0)
    order = np.lexsort((-pers, row))  # stable: ties stay in position order
    row, pos, pers = row[order], pos[order], pers[order]
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    kept = np.arange(row.size) - first[row] < keep[row]
    out = np.zeros((b, q))
    out[row[kept], pos[kept]] = pers[kept]
    return out


def _topk_vectors(rows: np.ndarray, k: float) -> np.ndarray:
    """Top-k% persistence vector of every row of an (n, q) matrix.

    Row i is zero except at the ceil(k% of m_i) most persistent of its m_i
    positive-persistence peaks (ties to the smaller position), which carry
    their persistence. A peak's death is its topographic saddle: the minimum
    between it and its nearest elder on each side (the first value >= it to
    the left, > it to the right), the higher of the two where both exist,
    the row minimum where neither does. This is the elder-rule pairing of
    :func:`transform`, computed for all rows at once in fixed-size blocks.
    """
    rows = np.asarray(rows, dtype=np.float64)
    out = np.zeros(rows.shape)
    for s in range(0, rows.shape[0], _BLOCK):
        out[s:s + _BLOCK] = _topk_block(rows[s:s + _BLOCK], k)
    return out


def write_triples_csv(triples, mz: np.ndarray, path) -> None:
    """Feature CSV: ``position_index,mz,birth,death,persistence`` per feature."""
    _write_csv(path, ((t.position, float(mz[t.position]), t.birth, t.death,
                       t.birth - t.death) for t in triples),
               header=("position_index", "mz", "birth", "death", "persistence"))


def write_pairs_csv(pairs, mz: np.ndarray, path) -> None:
    """Reduced feature CSV: ``position_index,mz,persistence`` per feature."""
    _write_csv(path, ((p.position, float(mz[p.position]), p.persistence) for p in pairs),
               header=("position_index", "mz", "persistence"))
