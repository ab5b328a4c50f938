"""Topological persistence of 1-D spectra.

Peaks are tracked through the family of upper-level sets {x : f(x) >= a} as
the threshold a sweeps downward. Each local maximum births a connected
component. A peak is higher than another when it is taller, or as tall and
further left; when two components meet at a local minimum, the one with the
lower peak dies there (the elder rule), and the component of the global
maximum dies at the global minimum of f. A peak's persistence is its birth
minus its death.

Three independent routes compute the same pairing. One serves production:

* :func:`_pair_block` finds the peaks, and the valley minima between
  neighbouring peaks, in one pass over each row's extrema, then each peak's
  nearest elder and saddle by pointer jumping over the sequence of peaks,
  for a block of rows at once, and returns the peaks in position order. A
  search ends at the first valley at its row's minimum, which cannot change
  a death; rows holding a -0.0 search to the end, so zero deaths keep
  their sign.
  :func:`transform` sorts its triples from a block of one row, so every
  persistence diagram runs it; :func:`_select` picks the top-k% peaks
  from its arrays, for several k from one pairing, by each row's cut value
  rather than by a sort. :func:`_topk_vectors` scatters them into the
  persistence vectors of ``build_matrix`` and ``denoise``, and ``transform
  --k`` keeps them from the pairing that gave its triples.

Two are references that no command runs:

* :func:`_transform_values`, the paper's route, splits the axis recursively
  at pairing minima, driven by an explicit work stack and rank-ordered
  maxima. It is quadratic in the number of peaks.
* :func:`oracle_transform` performs a literal threshold sweep with interval
  components.

Their outputs agree exactly: ``tests/test_persistence.py`` checks
transform against both references triple for triple
(``TestKernelTransform``, ``TestOracleAgreement``), and
``TestFilterTopK.test_fast_path_matches_composition`` and
``test_denoise_matches_composition`` check the batched vectors against the
oracle composed with the references :func:`reduce` and :func:`filter_top_k`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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

    The result is sorted by descending birth, ties by ascending position. The
    pairing is :func:`_pair_block`'s on a block of one row; births and deaths
    are input values, selected and never computed. A row without a
    positive-persistence peak (constant, or of length 1) gives ``(0, v, v)``.
    """
    values = np.asarray(spectrum.intensity, dtype=np.float64)
    _, pos, _, death = _pair_block(values[None, :])
    return _triples(values, pos, death)


def _triples(values: np.ndarray, pos: np.ndarray, death: np.ndarray) -> list[FeatureTriple]:
    """:func:`transform`'s triples from the positions and deaths that
    :func:`_pair_block` gives for the one row ``values``."""
    if not pos.size:
        v = float(values[0])
        return [FeatureTriple(0, v, v)]
    birth = values[pos]
    order = np.lexsort((pos, -birth))
    return list(map(FeatureTriple, pos[order].tolist(), birth[order].tolist(),
                    death[order].tolist()))


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


_BLOCK = 8  # rows per kernel pass, and per simulate_means block; larger were no faster


def _jump(birth: np.ndarray, link: np.ndarray, low: np.ndarray, thr: np.ndarray,
          rounds: int) -> np.ndarray:
    """Pointer jumping (Wyllie 1979) towards each search's nearest elder.

    Entry i is one peak's search on one side. ``link[i]`` is a peak on that
    side, or a sentinel (birth +inf, linked to itself); no peak strictly
    between them is an elder, and ``low[i]`` is the minimum of the values
    between them. While ``birth[link[i]] < thr[i]``, the link is lower than
    the peak too: entry i takes its link's link and the lower of the two
    minima. Runs at most ``rounds`` rounds, in place, and returns the
    entries still searching.

    A search that :func:`_pair_block` stopped at its row's minimum links to
    the other side's sentinel with ``low`` at that minimum. A search that
    jumps through it takes both, so it stops in the same round, with the
    minimum it has passed; no round does extra work for it.
    """
    act = np.flatnonzero(birth[link] < thr)
    for _ in range(rounds):
        if not act.size:
            break
        nxt = link[act]
        low[act] = np.minimum(low[act], low[nxt])
        nxt = link[nxt]
        link[act] = nxt
        act = act[birth[nxt] < thr[act]]
    return act


def _lift(rows: np.ndarray, row: np.ndarray, pos: np.ndarray, left_thr: np.ndarray,
          right_thr: np.ndarray):
    """Nearest elder on each side of the given peaks by binary lifting.

    A value is lower than the peak while under ``left_thr`` on the left and
    ``right_thr`` on the right, as in :func:`_jump`. Returns ``(has_left,
    left_min, has_right, right_min)``: whether the peak has an elder on that
    side and the minimum between it and that elder. The range tables span
    the whole block, so this runs only for the peaks :func:`_jump` leaves.
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
    row_at = row * width  # flat index where each peak's padded row starts

    # Take every window, longest first, that holds no elder: every value
    # under the side's threshold. The taken windows tile the span to the
    # elder, so the minimum of their range-minima is the saddle on that side.
    left = row_at + pos + 1  # the left windows end here, at the peak
    right = left + 1  # and the right ones start here
    left_min = np.full(pos.size, np.inf)
    right_min = np.full(pos.size, np.inf)
    for level in range(levels - 1, -1, -1):
        w = 1 << level
        at = np.maximum(left - w, row_at)
        take = hi[level, at] < left_thr
        left_min = np.where(take, np.minimum(left_min, lo[level, at]), left_min)
        left -= take * w
        take = hi[level, right] < right_thr
        right_min = np.where(take, np.minimum(right_min, lo[level, right]), right_min)
        right += take * w
    return left - row_at > 1, left_min, right - row_at < q + 1, right_min


def _pair_block(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row, position, persistence and death of every positive-persistence peak of a block.

    The peaks come grouped by row, in position order within a row. Peaks and
    valleys come from one pass over each row's extrema, which alternate
    between peaks and minima: the valley between two neighbouring peaks is
    read at the one minimum between them, the rightmost of equal lowest
    values. Deaths are read from the input, never computed.

    A search ends at the first valley between two of its row's peaks that
    equals the row minimum, and reports an elder with that saddle. Both
    saddles of a peak are at least the minimum and its death is the higher
    one, so the death is the same as the full search's: the other side's
    saddle, or the minimum where the other side has no elder. In a row that
    holds a -0.0 the searches run to the end, so that each zero death keeps
    the sign the full search reads; jumping and binary lifting can read
    different zeros of one span.
    """
    b, q = rows.shape
    # Extrema of the total order (-value, position): a position rises when it
    # is above its left neighbour, and position 0 when it is not below its
    # right one. The extrema are the row ends and every position after which
    # the rise flips; a rising extremum is a peak (above the left neighbour,
    # at least the right one), else a minimum. A plateau that rises again
    # yields a zero-persistence peak, dropped at the end. Two peaks are never
    # adjacent, and a row's nearest elder on either side is a peak.
    rise = np.empty((b, q), dtype=bool)
    np.greater(rows[:, 1:], rows[:, :-1], out=rise[:, 1:])
    rise[:, 0] = True if q == 1 else ~rise[:, 1]
    turn = np.empty((b, q), dtype=bool)
    np.not_equal(rise[:, :-1], rise[:, 1:], out=turn[:, :-1])
    turn[:, -1] = True
    ext = np.flatnonzero(turn)
    peak = np.flatnonzero(rise.ravel()[ext])
    at = ext[peak]
    row, pos = divmod(at, q)
    flat = rows.ravel()
    n = pos.size
    # valley[i]: the minimum between peak i and peak i + 1. Within a row
    # peaks and minima alternate; the values never rise from a peak to the
    # next extremum and strictly rise from it to the next peak, so that
    # extremum holds the minimum (the rightmost of equal lowest values).
    # Across a row end it is never read; the block's last extremum may be a
    # peak, so its index is clamped.
    valley = flat[ext[np.minimum(peak + 1, ext.size - 1)]]

    # One search per peak and side: entries 0..n-1 look left, n+1..2n right.
    # Links start at the neighbouring peak, or at the row end's sentinel, n or 2n+1.
    first = np.ones(n, dtype=bool)
    first[1:] = row[1:] != row[:-1]
    last = np.append(first[1:], True)
    index = np.arange(n)
    link = np.concatenate((np.where(first, n, index - 1), [n],
                           np.where(last, 2 * n + 1, index + n + 2), [2 * n + 1]))
    low = np.concatenate(([np.inf], valley[:-1], [np.inf], valley, [np.inf]))
    # A search whose first valley is at the row minimum stops (see above):
    # it points at the other side's sentinel, which ends it and every search
    # that jumps through it. Valleys read across a row end never count.
    row_min = rows.min(axis=1)
    floor = row_min[row]
    stop = ~last & (valley == floor)
    signed = row_min <= 0  # only a row that reaches zero can hold a -0.0
    if signed.any():
        signed &= ((rows == 0) & np.signbit(rows)).any(axis=1)
        stop &= ~signed[row]
    link[1:n][stop[:-1]] = 2 * n + 1
    link[n + 1:-1][stop] = n
    birth = np.append(flat[at], np.inf)
    # The order of heights as thresholds: a peak of birth b is lower than a
    # value x >= b on its left, x > b (x >= nextafter(b, +inf)) on its right;
    # for the largest finite b that is +inf, and every finite x <= b is below it.
    with np.errstate(over="ignore"):
        thr = np.concatenate((birth, np.nextafter(birth, np.inf)))
    # A V-shaped row needs one round per peak of one arm, so the rounds are
    # capped and the peaks still searching finish by binary lifting.
    rest = _jump(np.tile(birth, 2), link, low, thr, 3 * (q + 2).bit_length())
    has_left, has_right = link[:n] != n, link[n + 1:-1] != 2 * n + 1
    left_min, right_min = low[:n], low[n + 1:-1]
    birth = birth[:-1]
    if rest.size:
        rest = np.unique(rest % (n + 1))
        has_left[rest], left_min[rest], has_right[rest], right_min[rest] = _lift(
            rows, row[rest], pos[rest], thr[rest], thr[rest + n + 1])
    death = np.where(has_left & has_right, np.maximum(left_min, right_min),
                     np.where(has_left, left_min,
                              np.where(has_right, right_min, floor)))
    pers = birth - death
    alive = pers > 0.0
    return row[alive], pos[alive], pers[alive], death[alive]


def _topk_vectors(rows: np.ndarray, ks: tuple) -> tuple[np.ndarray, ...]:
    """Top-k% persistence vectors of the rows of an (n, q) matrix, one per k of ``ks``.

    In the matrix of k, row i is zero except at the ceil(k% of m_i) most
    persistent of its m_i positive-persistence peaks (ties to the smaller
    position), which carry their persistence. A peak's death is its
    topographic saddle: the minimum between it and its nearest higher peak
    on each side, the higher of the two where both exist, the row minimum
    where neither does. This is the elder-rule pairing of :func:`transform`.

    The order of heights (taller, or as tall and further left) is one
    threshold per search: a value x is lower than a peak of birth b while
    x < b on the left, and while x < nextafter(b, +inf), that is x <= b for
    finite values, on the right. Both elders are peaks, so each search walks
    the block's sequence of peaks: :func:`_jump` follows links to ever
    farther peaks for at most ``3 * (q + 2).bit_length()`` rounds, and the
    peaks still searching finish by binary lifting (:func:`_lift`), so the
    work per block is bounded and the range tables are built only then. A
    search ends early at the first valley at its row's minimum, which on a
    zero floor is mostly the first valley, so V-shaped rows that touch their
    minimum between the arms no longer reach the cap; rows holding a -0.0
    search to the end. Each block of rows is paired once; only the
    selection (:func:`_select`) runs once per k.
    """
    rows = np.asarray(rows, dtype=np.float64)
    ks = tuple(map(_check_k, ks))
    q = rows.shape[1]
    outs = tuple(np.zeros(rows.shape) for _ in ks)
    flats = tuple(out.reshape(-1) for out in outs)
    for s in range(0, rows.shape[0], _BLOCK):
        block = rows[s:s + _BLOCK]
        row, pos, pers, _ = _pair_block(block)
        at = (s + row) * q + pos
        for kept, flat in zip(_select(row, pers, block.shape[0], ks), flats):
            flat[at[kept]] = pers[kept]
    return outs


def _select(row: np.ndarray, pers: np.ndarray, b: int, ks: tuple) -> list[np.ndarray]:
    """Indices of the top-k% peaks of a block of b rows, one ascending array per k.

    ``row`` and ``pers`` are :func:`_pair_block`'s, and each k is checked.
    The selection needs no ranking of the peaks, only each row's cut value:
    the persistence t of rank keep = ceil(k% of m) from the top, read from
    the row's persistences sorted in one small zero-padded table. A row
    keeps every peak with persistence > t and, of those equal to t, the
    leftmost keep - #(> t); a row without a peak keeps nothing.
    """
    counts = np.bincount(row, minlength=b)
    first = np.cumsum(counts) - counts  # index of each row's first peak
    # Every persistence is > 0, so the pads sort first, and each row has
    # at least one: column -0 is a pad, the cut of a row that keeps none.
    table = np.zeros((b, counts.max(initial=0) + 1))
    table[row, np.arange(row.size) - np.repeat(first, counts)] = pers
    table.sort(axis=1)
    kept = []
    for k in ks:
        keep = np.ceil(k * counts / 100.0).astype(np.intp)
        cut = np.repeat(table[np.arange(b), -keep], counts)
        cand = np.flatnonzero(pers >= cut)  # still by row, then by position
        crow = row[cand]
        tied = pers[cand] == cut[cand]
        per_row = np.bincount(crow, minlength=b)
        # each tie's rank among its row's ties, from 1 in position order
        tie_rank = np.cumsum(tied)
        tie_rank -= np.append(0, tie_rank)[np.cumsum(per_row) - per_row][crow]
        room = keep - per_row + np.bincount(crow[tied], minlength=b)  # keep - #(> t)
        kept.append(cand[~tied | (tie_rank <= room[crow])])
    return kept


def write_triples_csv(triples, mz: np.ndarray, path) -> None:
    """Feature CSV: ``position_index,mz,birth,death,persistence`` per feature."""
    _write_csv(path, ((t.position, float(mz[t.position]), t.birth, t.death,
                       t.birth - t.death) for t in triples),
               header=("position_index", "mz", "birth", "death", "persistence"))


def write_pairs_csv(pairs, mz: np.ndarray, path) -> None:
    """Reduced feature CSV: ``position_index,mz,persistence`` per feature."""
    _write_csv(path, ((p.position, float(mz[p.position]), p.persistence) for p in pairs),
               header=("position_index", "mz", "persistence"))
