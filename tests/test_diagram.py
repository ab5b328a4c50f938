"""Bottleneck distance, checked against exhaustive matching enumeration and
against a diagonal-copy perfect-matching reference."""

from __future__ import annotations

import time
from itertools import combinations, permutations

import numpy as np
import pytest
from conftest import mk

from topopeaks import (
    NoiseModel,
    PersistenceDiagram,
    SimulationSpec,
    Spectrum,
    add_noise,
    bottleneck_distance,
    generate_ground_truth,
    to_diagram,
    transform,
    write_diagram_csv,
)


def brute_bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Try every way to match points across diagrams; unmatched go diagonal."""
    p1, p2 = list(d1.points), list(d2.points)
    best = float("inf")
    for r in range(min(len(p1), len(p2)) + 1):
        for ones in combinations(range(len(p1)), r):
            for twos in permutations(range(len(p2)), r):
                cost = 0.0
                for a, b in zip(ones, twos):
                    (b1, d1_), (b2, d2_) = p1[a], p2[b]
                    cost = max(cost, abs(b1 - b2), abs(d1_ - d2_))
                for i, (b, d) in enumerate(p1):
                    if i not in ones:
                        cost = max(cost, (b - d) / 2.0)
                for j, (b, d) in enumerate(p2):
                    if j not in twos:
                        cost = max(cost, (b - d) / 2.0)
                best = min(best, cost)
    return best


def reference_feasible(t, cost, gap1, gap2) -> bool:
    """Perfect matching test on the diagonal-copy graph at threshold t.

    Left side: points of the first diagram plus one diagonal slot per point
    of the second; the right side is the mirror image. A point may match a
    point of the other diagram at infinity-norm cost <= t, or any diagonal
    slot when its own half-gap is <= t; diagonal slots match each other
    freely. Kuhn's augmenting paths after a greedy start, each path searched
    depth-first with an explicit stack.
    """
    n1, n2 = cost.shape
    n = n1 + n2
    slots = list(range(n2, n))
    adj = [np.flatnonzero(cost[u] <= t).tolist() + (slots if gap1[u] <= t else [])
           for u in range(n1)]
    adj += [np.flatnonzero(gap2 <= t).tolist() + slots] * n2
    match_b = [-1] * n
    unmatched = []
    for u in range(n):
        v = next((v for v in adj[u] if match_b[v] == -1), None)
        if v is None:
            unmatched.append(u)
        else:
            match_b[v] = u
    for root in unmatched:
        seen = [False] * n
        stack, via = [(root, iter(adj[root]))], []
        while stack:
            u, nbrs = stack[-1]
            v = next((v for v in nbrs if not seen[v]), None)
            if v is None:
                stack.pop()
                if via:
                    via.pop()
                continue
            seen[v] = True
            via.append(v)
            if match_b[v] == -1:
                for (w, _), c in zip(stack, via):
                    match_b[c] = w
                break
            stack.append((match_b[v], iter(adj[match_b[v]])))
        else:
            return False
    return True


def reference_costs(d1: PersistenceDiagram, d2: PersistenceDiagram):
    """Pairwise infinity-norm costs and the half-gaps of both diagrams."""
    p1 = np.array(d1.points, dtype=np.float64).reshape(-1, 2)
    p2 = np.array(d2.points, dtype=np.float64).reshape(-1, 2)
    cost = np.maximum(np.abs(p1[:, None, 0] - p2[None, :, 0]),
                      np.abs(p1[:, None, 1] - p2[None, :, 1]))
    return cost, (p1[:, 0] - p1[:, 1]) / 2.0, (p2[:, 0] - p2[:, 1]) / 2.0


def reference_candidates(cost, gap1, gap2) -> list[float]:
    """Every value the distance can take: 0, a half-gap or a pairwise cost."""
    return sorted({0.0, *gap1.tolist(), *gap2.tolist(), *cost.ravel().tolist()})


def reference_bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Smallest candidate with a perfect diagonal-copy matching, by bisection."""
    cost, gap1, gap2 = reference_costs(d1, d2)
    ordered = reference_candidates(cost, gap1, gap2)
    if reference_feasible(ordered[0], cost, gap1, gap2):
        return ordered[0]
    lo, hi = 0, len(ordered) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference_feasible(ordered[mid], cost, gap1, gap2):
            hi = mid
        else:
            lo = mid
    return ordered[hi]


def random_diagram(rng, max_points=4, grid=None) -> PersistenceDiagram:
    n = int(rng.integers(0, max_points + 1))
    pts = []
    for _ in range(n):
        if grid is None:
            a, b = rng.uniform(0, 10, size=2)
        else:
            a, b = rng.choice(grid, size=2)
        pts.append((max(a, b), min(a, b)))
    return PersistenceDiagram(tuple(pts))


class TestPersistenceDiagram:
    def test_multiset_equality(self):
        d1 = PersistenceDiagram(((3.0, 0.0), (2.0, 1.0)))
        d2 = PersistenceDiagram(((2.0, 1.0), (3.0, 0.0)))
        assert d1 == d2
        assert hash(d1) == hash(d2)

    def test_multiplicity_matters(self):
        d1 = PersistenceDiagram(((2.0, 1.0), (2.0, 1.0)))
        d2 = PersistenceDiagram(((2.0, 1.0),))
        assert d1 != d2

    def test_birth_below_death_rejected(self):
        with pytest.raises(ValueError, match="birth 1.0 below death 2.0"):
            PersistenceDiagram(((1.0, 2.0),))

    @pytest.mark.parametrize("point", [(3.0, 1.0, 99.0), (3.0,), (), np.array([3.0, 1.0, 0.5])])
    def test_point_must_be_a_pair(self, point):
        with pytest.raises(ValueError, match="unpack"):
            PersistenceDiagram(((2.0, 1.0), point))

    def test_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        write_diagram_csv(PersistenceDiagram(((3.0, 0.0), (2.0, 1.0))), path)
        assert path.read_text() == "3.0,0.0\n2.0,1.0\n"


class TestBottleneckExamples:
    def test_identical_diagrams(self):
        d = PersistenceDiagram(((3.0, 0.0), (2.0, 1.0)))
        assert bottleneck_distance(d, d) == 0.0

    def test_single_point_shift(self):
        d1 = PersistenceDiagram(((3.0, 0.0),))
        d2 = PersistenceDiagram(((3.0, 1.0),))
        # direct match costs 1; sending both to the diagonal costs 1.5
        assert bottleneck_distance(d1, d2) == 1.0

    def test_against_empty(self):
        d = PersistenceDiagram(((2.0, 1.0),))
        empty = PersistenceDiagram(())
        assert bottleneck_distance(d, empty) == 0.5
        assert bottleneck_distance(empty, d) == 0.5

    def test_both_empty(self):
        empty = PersistenceDiagram(())
        assert bottleneck_distance(empty, empty) == 0.0

    def test_prefers_diagonal_over_bad_match(self):
        # matching the low-persistence pair directly would cost 5;
        # two diagonal projections cost max(0.5, 0.5) = 0.5
        d1 = PersistenceDiagram(((6.0, 5.0),))
        d2 = PersistenceDiagram(((1.0, 0.0),))
        assert bottleneck_distance(d1, d2) == 0.5

    def test_unequal_cardinality(self):
        d1 = PersistenceDiagram(((10.0, 0.0), (3.0, 2.0)))
        d2 = PersistenceDiagram(((10.0, 0.0),))
        assert bottleneck_distance(d1, d2) == 0.5


class TestBottleneckAgainstBruteForce:
    def test_continuous_diagrams(self):
        rng = np.random.default_rng(100)
        for _ in range(150):
            d1 = random_diagram(rng)
            d2 = random_diagram(rng)
            assert bottleneck_distance(d1, d2) == brute_bottleneck(d1, d2)

    def test_tied_grid_diagrams(self):
        # integer grid forces equal candidate costs and degenerate matchings
        rng = np.random.default_rng(101)
        grid = np.arange(4, dtype=float)
        for _ in range(150):
            d1 = random_diagram(rng, grid=grid)
            d2 = random_diagram(rng, grid=grid)
            assert bottleneck_distance(d1, d2) == brute_bottleneck(d1, d2)


class TestBottleneckAgainstReference:
    """The forced-point matcher against the diagonal-copy formulation."""

    @pytest.mark.parametrize("grid", [None, np.arange(6, dtype=float)],
                             ids=["continuous", "tied-grid"])
    def test_random_pairs_up_to_sixty_points(self, grid):
        rng = np.random.default_rng(105 if grid is None else 106)
        for _ in range(150):
            d1 = random_diagram(rng, max_points=60, grid=grid)
            d2 = random_diagram(rng, max_points=60, grid=grid)
            expected = reference_bottleneck(d1, d2)
            got = bottleneck_distance(d1, d2)
            assert type(got) is float
            assert got == expected
            assert bottleneck_distance(d2, d1) == expected


class TestBottleneckAtRealSize:
    def test_thousand_point_diagrams(self):
        # Full-axis pixels 18 (circle) and 54 (square) of a noisy 8x8
        # simulator image: about a thousand maxima each, as in real MSI data.
        image, _ = generate_ground_truth(SimulationSpec(size=8, seed=1234))
        image = add_noise(image, NoiseModel("gaussian", 0.1, 1234))
        d1, d2 = (to_diagram(transform(Spectrum(image.mz, image.spectra[p])))
                  for p in (18, 54))
        assert (len(d1), len(d2)) == (943, 929)
        start = time.perf_counter()
        dist = bottleneck_distance(d1, d2)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        cost, gap1, gap2 = reference_costs(d1, d2)
        cands = reference_candidates(cost, gap1, gap2)
        assert dist in cands
        i = cands.index(dist)
        assert i > 0
        assert reference_feasible(dist, cost, gap1, gap2)
        assert not reference_feasible(cands[i - 1], cost, gap1, gap2)
        assert bottleneck_distance(d2, d1) == dist


class TestMetricAxioms:
    def test_axioms_on_random_diagrams(self):
        rng = np.random.default_rng(102)
        diagrams = [random_diagram(rng, max_points=6) for _ in range(12)]
        for d in diagrams:
            assert bottleneck_distance(d, d) == 0.0
        for i, a in enumerate(diagrams):
            for b in diagrams[i + 1:]:
                ab = bottleneck_distance(a, b)
                assert ab == bottleneck_distance(b, a)
                assert ab >= 0.0
        for a in diagrams[:6]:
            for b in diagrams[:6]:
                for c in diagrams[:6]:
                    ab = bottleneck_distance(a, b)
                    bc = bottleneck_distance(b, c)
                    ac = bottleneck_distance(a, c)
                    assert ac <= ab + bc + 1e-12

    def test_zero_iff_equal_multisets(self):
        rng = np.random.default_rng(103)
        grid = np.arange(3, dtype=float)
        for _ in range(200):
            d1 = random_diagram(rng, grid=grid)
            d2 = random_diagram(rng, grid=grid)
            dist = bottleneck_distance(d1, d2)
            if d1 == d2:
                assert dist == 0.0
            # distance 0 with differing multisets is legitimate when the
            # mismatch is zero-persistence points sitting on the diagonal
            elif dist == 0.0:
                def off_diag(pts):
                    return sorted(p for p in pts if p[0] > p[1])

                assert off_diag(d1.points) == off_diag(d2.points)


class TestMirrorProperty:
    def test_mirror_diagrams_indistinguishable(self):
        rng = np.random.default_rng(104)
        for _ in range(40):
            vals = rng.uniform(0, 10, size=int(rng.integers(2, 40)))
            d_f = to_diagram(transform(mk(vals)))
            d_g = to_diagram(transform(mk(vals[::-1])))
            assert bottleneck_distance(d_f, d_g) == 0.0
