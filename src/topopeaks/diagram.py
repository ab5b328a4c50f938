"""Persistence diagrams and the bottleneck distance between them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _write_csv


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
            if not (np.isfinite(b) and np.isfinite(d)):
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

    ``adj[r, c]`` says whether row r may take column c. Hopcroft-Karp: each
    phase lays out breadth-first layers from the free rows and then augments
    along vertex-disjoint shortest paths, walked with an explicit stack so
    that no path length can reach the interpreter's recursion limit.
    """
    rows = [np.flatnonzero(r).tolist() for r in adj]
    n = len(rows)
    match_row, match_col = [-1] * n, [-1] * adj.shape[1]
    unreached = n + 1
    free = list(range(n))
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
    largest half-gap. The smallest feasible candidate between these bounds is
    found by bisection over the sorted candidates, each step deciding
    feasibility with :func:`_feasible`, so no floating tolerance enters the
    result.
    """
    p1 = np.array(d1.points, dtype=np.float64).reshape(-1, 2)
    p2 = np.array(d2.points, dtype=np.float64).reshape(-1, 2)
    if p1.shape[0] == 0 and p2.shape[0] == 0:
        return 0.0
    gap1 = (p1[:, 0] - p1[:, 1]) / 2.0
    gap2 = (p2[:, 0] - p2[:, 1]) / 2.0
    cost = np.maximum(
        np.abs(p1[:, 0][:, None] - p2[:, 0][None, :]),
        np.abs(p1[:, 1][:, None] - p2[:, 1][None, :]),
    )
    gaps = np.concatenate((gap1, gap2))
    cheapest = np.concatenate((
        np.min(cost, axis=1, initial=np.inf),
        np.min(cost, axis=0, initial=np.inf),
    ))
    lower = np.max(np.minimum(gaps, cheapest))
    upper = np.max(gaps)
    within = cost[(cost >= lower) & (cost <= upper)]
    cands = np.unique(np.concatenate((gaps[gaps >= lower], within)))
    # cands[hi] is feasible (it is the upper bound); index lo = -1 stands for
    # the infeasible values below the lower bound.
    lo, hi = -1, cands.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _feasible(cands[mid], cost, gap1, gap2):
            hi = mid
        else:
            lo = mid
    return float(cands[hi])
