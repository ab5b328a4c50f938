"""Persistence diagrams and the bottleneck distance between them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _write_csv

# rows of the cost matrix that one step of its construction fills
_ROWS = 64


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """A multiset of (birth, death) points with birth >= death.

    Equality compares points as a multiset: the order they were collected in
    carries no meaning.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = []
        for p in self.points:
            b, d = p  # a ValueError unless the point holds exactly two values
            b, d = float(b), float(d)
            if not (math.isfinite(b) and math.isfinite(d)):
                raise ValueError("diagram points must be finite")
            if b < d:
                raise ValueError(f"birth {b} below death {d}")
            pts.append((b, d))
        object.__setattr__(self, "points", tuple(pts))

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return sorted(self.points) == sorted(other.points)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.points)))


def write_diagram_csv(diagram: PersistenceDiagram, path) -> None:
    """Write one ``birth,death`` row per diagram point."""
    _write_csv(path, diagram.points)


def _covers(adj: np.ndarray) -> bool:
    """True when some matching of the bipartite graph ``adj`` saturates every row.

    ``adj[r, c]`` says whether row r may take column c. A greedy pass first
    gives each row, in order, its first free column; only the rows it leaves
    unmatched start as free. Hopcroft-Karp then grows that matching: each
    phase lays out breadth-first layers from the free rows and then augments
    along vertex-disjoint shortest paths, walked with an explicit stack so
    that no path length can reach the interpreter's recursion limit.
    """
    n = adj.shape[0]
    cols = adj.nonzero()[1].tolist()
    ends = adj.sum(axis=1).cumsum().tolist()
    rows = [cols[s:e] for s, e in zip([0] + ends, ends)]
    match_row, match_col = [-1] * n, [-1] * adj.shape[1]
    for u, nbrs in enumerate(rows):
        for v in nbrs:
            if match_col[v] == -1:
                match_row[u], match_col[v] = v, u
                break
    unreached = n + 1
    free = [u for u in range(n) if match_row[u] == -1]
    while free:
        dist = [unreached] * n
        for u in free:
            dist[u] = 0
        queue, found = list(free), False
        for u in queue:
            for v in rows[u]:
                w = match_col[v]
                if w == -1:
                    found = True
                elif dist[w] == unreached:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return False
        nxt = [0] * n
        for s in free:
            stack = [s]
            while stack:
                u = stack[-1]
                if nxt[u] == len(rows[u]):
                    dist[u] = unreached
                    stack.pop()
                    continue
                v = rows[u][nxt[u]]
                nxt[u] += 1
                w = match_col[v]
                if w == -1:
                    # nxt[x] - 1 is the column each row on the stack left by
                    for x in stack:
                        c = rows[x][nxt[x] - 1]
                        match_row[x], match_col[c] = c, x
                    break
                if dist[w] == dist[u] + 1:
                    stack.append(w)
        free = [u for u in free if match_row[u] == -1]
    return True


def _cost_matrix(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Infinity-norm distances between the (birth, death) rows of p1 and p2.

    Built in place: |delta birth| first, then |delta death| folded in
    ``_ROWS`` rows at a time, so the matrix is the one array of its size.
    """
    cost = np.subtract.outer(p1[:, 0], p2[:, 0])
    np.abs(cost, out=cost)
    for s in range(0, cost.shape[0], _ROWS):
        block = cost[s:s + _ROWS]
        deaths = np.subtract.outer(p1[s:s + _ROWS, 1], p2[:, 1])
        np.maximum(block, np.abs(deaths, out=deaths), out=block)
    return cost


def _feasible(t: float, cost: np.ndarray, gap1: np.ndarray, gap2: np.ndarray) -> bool:
    """Whether the diagrams admit a matching of cost at most t.

    A point may go to the diagonal when its half-gap ``gap`` is <= t; a point
    whose half-gap exceeds t is *forced*: it needs a partner in the other
    diagram at infinity-norm ``cost`` <= t. Every other point can go to the
    diagonal, so a matching of cost <= t exists iff one matching of the
    graph {cost <= t} covers the forced points of both diagrams at once.
    By the Mendelsohn-Dulmage theorem, a bipartite graph has a matching
    covering a row set A and a column set B iff it has one covering A and
    another covering B. The test is therefore two one-sided matchings: the
    forced rows against all columns, and the forced columns against all rows.
    """
    return _covers(cost[gap1 > t] <= t) and _covers((cost[:, gap2 > t] <= t).T)


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Exact bottleneck distance between two diagrams.

    The optimum is one of finitely many values: a pairwise infinity-norm cost
    or a point's half-gap to the diagonal. Every point needs a partner, either
    the diagonal or a point of the other diagram, so the distance is at least
    the largest over points of min(half-gap, cheapest cross cost); sending
    every point to the diagonal is always feasible, so it is at most the
    largest half-gap. The lower bound is tested first and returned when it is
    feasible, which on noisy spectra it mostly is; otherwise the smallest
    feasible candidate above it is found by bisection over the sorted
    candidates up to the upper bound. Each step decides feasibility with
    :func:`_feasible`, so no floating tolerance enters the result.

    The float64 cost matrix is built in place by :func:`_cost_matrix`, with
    no float temporary of its size. Beside it, the call makes two boolean
    masks of its shape while it gathers the costs between the bounds, a few
    float copies of those costs (each up to n1 x n2 when most costs lie
    between the bounds), and in each feasibility test a float copy of the
    forced rows and of the forced columns (all of them when every half-gap
    exceeds the threshold).
    """
    p1 = np.array(d1.points, dtype=np.float64).reshape(-1, 2)
    p2 = np.array(d2.points, dtype=np.float64).reshape(-1, 2)
    if p1.shape[0] == 0 and p2.shape[0] == 0:
        return 0.0
    gap1 = (p1[:, 0] - p1[:, 1]) / 2.0
    gap2 = (p2[:, 0] - p2[:, 1]) / 2.0
    cost = _cost_matrix(p1, p2)
    gaps = np.concatenate((gap1, gap2))
    cheapest = np.concatenate((
        np.min(cost, axis=1, initial=np.inf),
        np.min(cost, axis=0, initial=np.inf),
    ))
    lower = np.max(np.minimum(gaps, cheapest))
    if _feasible(lower, cost, gap1, gap2):
        return float(lower)
    upper = np.max(gaps)
    keep = cost >= lower
    keep &= cost <= upper
    within = cost[keep]
    del keep  # so that the bisection holds no mask of the matrix's shape
    cands = np.unique(np.concatenate((gaps[gaps >= lower], within)))
    # cands[0] is the lower bound, just found infeasible; cands[hi] is the
    # upper bound, which is feasible.
    lo, hi = 0, cands.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _feasible(cands[mid], cost, gap1, gap2):
            hi = mid
        else:
            lo = mid
    return float(cands[hi])
