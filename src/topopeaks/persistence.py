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
  for a block of rows at once, and returns the peaks in position order.
  Only the search of the higher of two neighbouring peaks moves past the
  valley between them, so only those searches are set up to jump; those
  still open after a fixed number of rounds finish by binary lifting over
  the same links. A search ends at the first valley at its row's minimum,
  which cannot change a death. Rows holding a value with its sign bit set
  search to the end. Every search folds its valleys near to far, keeping
  the farthest of equal lowest values, and a row's minimum is read at its
  rightmost lowest value, as the valleys are, so zero deaths carry the
  same sign on every CPU and however far the jumping got.
  :func:`transform` sorts its triples from a block of one row, so every
  persistence diagram runs it; :func:`_select` picks the top-k% peaks
  from its arrays, for several k from one pairing, by each row's cut value
  rather than by a sort, each smaller k among the larger k's kept peaks.
  :func:`_topk_vectors` scatters them into the persistence vectors of
  ``build_matrix`` and ``denoise``, and ``transform --k`` keeps them from
  the pairing that gave its triples.

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


def _jump(height: np.ndarray, link: np.ndarray, low: np.ndarray, act: np.ndarray,
          thr: np.ndarray, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointer jumping (Wyllie 1979) towards each search's nearest elder.

    Entry i is one peak's search on one side. ``link[i]`` is a peak on that
    side, or a sentinel (height +inf, linked to itself); no peak strictly
    between them is an elder, and ``low[i]`` is the minimum of the values
    between them, -inf once the search has passed its row's end. ``act``
    lists the entries still searching and ``thr`` their thresholds: while
    ``height[link[i]] < thr``, the link is lower than the peak too, and
    entry i takes its link's link and ``np.minimum`` of its minimum and the
    link's, near before far. Runs at most ``rounds`` rounds, in place, and
    returns the entries still searching with their thresholds.
    """
    for _ in range(rounds):
        if not act.size:
            break
        # [] rather than take: most rounds gather a few hundred entries,
        # where take's call costs more than it saves
        nxt = link[act]
        low[act] = np.minimum(low[act], low[nxt])
        nxt = link[nxt]
        link[act] = nxt
        go = height[nxt] < thr
        act, thr = act[go], thr[go]
    return act, thr


def _climb(height: np.ndarray, link: np.ndarray, low: np.ndarray, act: np.ndarray,
           thr: np.ndarray) -> None:
    """Finish the searches :func:`_jump` leaves by binary lifting (Bender &
    Farach-Colton 2000) over its links.

    A step goes from entry i to ``link[i]`` and passes ``low[i]``. Level l
    gives, for each entry, where 2**l steps land, the least valley they pass
    and the highest peak they land on; a level is built only while some
    open search could take it from its start. Each search takes the longest
    run of steps that lands only below its threshold, then the one step onto
    its elder or a sentinel, and folds the valleys near to far as
    :func:`_jump` does. Writes ``low[act]``.
    """
    levels = [(link, low, height.take(link))]
    while True:
        nxt, lo, hi = levels[-1]
        if not (np.maximum(hi.take(act), hi.take(nxt.take(act))) < thr).any():
            break
        levels.append((nxt.take(nxt).astype(np.int32, copy=False),
                       np.minimum(lo, lo.take(nxt)), np.maximum(hi, hi.take(nxt))))
    at = act
    acc = np.full(act.size, np.inf)
    for nxt, lo, hi in reversed(levels):
        go = hi.take(at) < thr
        acc = np.where(go, np.minimum(acc, lo.take(at)), acc)
        at = np.where(go, nxt.take(at), at)
    low[act] = np.minimum(acc, low.take(at))


def _pair_block(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row, position, persistence and death of every positive-persistence peak of a block.

    The peaks come grouped by row, in position order within a row. Peaks and
    valleys come from one pass over each row's extrema, which alternate
    between peaks and minima: the valley between two neighbouring peaks is
    read at the one minimum between them, the rightmost of equal lowest
    values. Deaths are read from the input, never computed.

    Of two neighbouring peaks, the higher one is the lower one's nearest
    elder on that side, so only the higher one's search goes on past the
    valley between them: only those searches get a threshold and enter
    :func:`_jump`, and those its cap leaves open enter :func:`_climb`. A
    search that reaches its row's end carries a -inf
    valley, so a peak's death is the higher of its two searches' minima;
    where both are -inf, at a row's top peak, the row minimum is written in
    through a mask, as taking the maximum with it could flip a zero's sign.

    A search also ends at the first valley between two of its row's peaks
    that equals the row minimum. Both saddles of a peak are at least the
    minimum and its death is the higher one, so the death is the same as
    the full search's. In a row that holds a value with its sign bit set, a
    -0.0 or a negative value, the searches run to the end, so that each zero
    death keeps the sign the full search reads: jumping and climbing fold a
    search's valleys near to far with ``np.minimum``, which keeps the
    farther of two equal values, however the steps are grouped. The row
    minimum is read at its rightmost lowest position.
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
    at = ext.take(peak)  # take: quicker than [] for the peak-sized gathers
    row = at // q
    flat = rows.ravel()
    birth = flat.take(at)
    n = at.size
    # Non-negative floats order as their bit patterns, so a row's least bit
    # pattern is its minimum unless the row holds a value with its sign bit
    # set, a -0.0 or a negative value. Such a row searches to the end (see
    # above), and its minimum is read at its rightmost lowest position, as
    # the valleys are: which of two zeros rows.min returns depends on the
    # SIMD lane order. The other rows stop at a valley at their minimum.
    lowest = rows.view(np.int64).min(axis=1)
    signed = lowest < 0
    s = np.flatnonzero(signed)
    row_min = lowest.view(np.float64)
    if s.size:
        row_min[s] = rows[s, q - 1 - rows[s, ::-1].argmin(axis=1)]
    stop = np.where(signed, -np.inf, row_min)

    # One search per peak and side: entries 0..n-1 look left, n+1..2n right;
    # n and 2n+1 are sentinels. low[i] is the first valley that search i
    # crosses. valley[i] is the minimum between peak i and peak i + 1: within
    # a row peaks and minima alternate, the values never rise from a peak to
    # the next extremum and strictly rise from it to the next peak, so that
    # extremum holds the minimum (the rightmost of equal lowest values).
    # Across a row end it is -inf: the search has no elder there.
    low = np.empty(2 * n + 2)
    valley = low[n + 1:-1]
    valley[:-1] = flat.take(ext[1:].take(peak[:-1]))
    valley[:-1][row[1:] != row[:-1]] = -np.inf
    valley[-1] = -np.inf
    low[0], low[n], low[-1] = -np.inf, np.inf, np.inf
    low[1:n] = valley[:-1]
    # A valley above its row's stop is open. A search links to its
    # neighbouring peak across an open valley, else to its side's sentinel,
    # which ends it and every search that jumps through it.
    gap = np.flatnonzero(valley[:-1] > stop.take(row[:-1]))
    link = np.empty(2 * n + 2, dtype=np.intp)
    link[:n + 1] = n
    link[n + 1:] = 2 * n + 1
    link[gap + 1] = gap
    link[gap + n + 1] = gap + n + 2
    height = np.concatenate((birth, [np.inf], birth, [np.inf]))
    # The order of heights: a peak of birth b is lower than its left
    # neighbour while < b, than its right one while <= b. Of two neighbours
    # across an open valley, the lower one has found its elder; the higher
    # one searches on past it, with threshold b on the left and the next
    # float above b on the right for _jump's "<". Adding 0.0 turns -0.0 into
    # 0.0; the next float then has the next bit pattern away from zero for
    # b >= 0 and towards it for b < 0, +inf after the largest finite b.
    left, right = birth[gap], birth[gap + 1]
    up = left < right
    act = gap + np.where(up, 1, n + 1)
    bits = (left + 0.0).view(np.int64)
    bits += bits >> 63 | 1
    thr = np.where(up, right, bits.view(np.float64))
    # On the far arm of a V-shaped row, links move one peak per round, so
    # the rounds are capped and the searches still open climb: binary
    # lifting over the links the jumping left.
    act, thr = _jump(height, link, low, act, thr, 3 * (q + 2).bit_length())
    if act.size:
        _climb(height, link, low, act, thr)
    death = np.maximum(low[:n], low[n + 1:-1])
    top = np.flatnonzero(death == -np.inf)  # no elder on either side, nor a stop
    death[top] = row_min[row[top]]
    pers = birth - death
    alive = pers > 0.0
    row, at = row[alive], at[alive]
    return row, at - row * q, pers[alive], death[alive]


def _topk_vectors(rows: np.ndarray, ks: tuple) -> tuple[np.ndarray, ...]:
    """Top-k% persistence vectors of the rows of an (n, q) matrix, one per k of ``ks``.

    In the matrix of k, row i is zero except at the ceil(k% of m_i) most
    persistent of its m_i positive-persistence peaks (ties to the smaller
    position), which carry their persistence, as paired by the elder rule
    of :func:`transform`. Each block of ``_BLOCK`` rows is paired once, by
    :func:`_pair_block`; only the selection (:func:`_select`) runs once per
    k, each smaller k among the next larger k's kept peaks.
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
    leftmost keep - #(> t); a row without a peak keeps nothing. Where no
    row's cut falls inside a run of equal persistences, the peaks at or
    above the cuts are exactly the kept ones. Selections are nested, so
    each smaller k is searched for among the next larger k's kept peaks.
    """
    counts = np.diff(np.searchsorted(row, np.arange(b + 1)))  # peaks per row
    width = counts.max(initial=0) + 1
    # Each row's persistences fill the first columns of its table row, in
    # one put in row-major order. Every persistence is > 0, so the pads
    # sort first, and each row has at least one: column -0 is a pad, the
    # cut of a row that keeps none.
    table = np.zeros((b, width))
    table[np.arange(width) < counts[:, None]] = pers
    table.sort(axis=1)
    kept = {}
    cand = None
    for k in sorted(set(ks), reverse=True):
        keep = np.ceil(k * counts / 100.0).astype(np.intp)
        cut = table[np.arange(b), -keep]
        # the peaks at or above their row's cut, still by row, then by position
        if cand is None:
            cand = np.flatnonzero(pers >= np.repeat(cut, counts))
        else:
            cand = cand[pers[cand] >= cut[row[cand]]]
        # every row holds at least keep of them, and exactly keep unless
        # its cut falls inside a tie
        if cand.size != keep.sum():
            crow = row[cand]
            tied = pers[cand] == cut[crow]
            per_row = np.bincount(crow, minlength=b)
            # each tie's rank among its row's ties, from 1 in position order
            tie_rank = np.cumsum(tied)
            tie_rank -= np.append(0, tie_rank)[np.cumsum(per_row) - per_row][crow]
            room = keep - per_row + np.bincount(crow[tied], minlength=b)  # keep - #(> t)
            cand = cand[~tied | (tie_rank <= room[crow])]
        kept[k] = cand
    return [kept[k] for k in ks]


def write_triples_csv(triples, mz: np.ndarray, path) -> None:
    """Feature CSV: ``position_index,mz,birth,death,persistence`` per feature."""
    _write_csv(path, ((t.position, float(mz[t.position]), t.birth, t.death,
                       t.birth - t.death) for t in triples),
               header=("position_index", "mz", "birth", "death", "persistence"))


def write_pairs_csv(pairs, mz: np.ndarray, path) -> None:
    """Reduced feature CSV: ``position_index,mz,persistence`` per feature."""
    _write_csv(path, ((p.position, float(mz[p.position]), p.persistence) for p in pairs),
               header=("position_index", "mz", "persistence"))
