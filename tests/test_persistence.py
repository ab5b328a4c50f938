"""Persistence transformation: extrema, pairing, reduction, filtering.

transform() (the batched kernel), _transform_values() (the paper's
divide-and-conquer route) and oracle_transform() (a threshold sweep) are
independent routes to the same answer; a large part of this file pits them
against each other on adversarial inputs (ties, plateaus, boundary peaks,
near-degenerate saddles).
"""

from __future__ import annotations

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from conftest import (
    _simd_features,
    detect_extrema,
    mk,
    reference_pair_block,
    run_digest_in_child,
    sequential_pair_block,
    to_persistence_vector,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _descending_peaks, _random_spectrum

from topopeaks import (
    FeatureTriple,
    NoiseModel,
    PersistencePair,
    SimulationSpec,
    add_noise,
    denoise,
    filter_top_k,
    generate_ground_truth,
    oracle_transform,
    reduce,
    to_diagram,
    transform,
    write_pairs_csv,
    write_triples_csv,
)
from topopeaks import persistence
from topopeaks.persistence import _BLOCK, _pair_block, _topk_vectors, _transform_values

# SHA-256 of _pair_block's arrays on TestPairBlock._sequence_blocks(), the
# same with every SIMD dispatch level of numpy 2.4 on x86-64
GOLDEN_PAIR_BLOCK_SHA256 = "033efef1195b74f95b36580254b30891999f2454623a954b372dfe79abffdd4c"


class TestDetectExtrema:
    def test_two_peaks(self):
        ext = detect_extrema(mk([0, 2, 1, 3, 0]))
        assert ext.maxima == (3, 1)  # tallest first
        assert set(ext.maxima) == {1, 3}
        assert set(ext.minima) == {0, 2, 4}
        # minima ordered by ascending value, ties by position
        assert ext.minima == (0, 4, 2)

    def test_monotone_rise_endpoint_rule(self):
        ext = detect_extrema(mk([1, 2, 3]))
        assert ext.maxima == (2,)
        assert ext.minima == (0,)

    def test_constant_spectrum(self):
        ext = detect_extrema(mk([5, 5, 5]))
        assert ext.maxima == (0,)
        assert ext.minima == ()

    def test_single_point(self):
        ext = detect_extrema(mk([7]))
        assert ext.maxima == (0,)
        assert ext.minima == ()

    def test_plateau_anchors_left(self):
        # max run at 2..3, min run at 5..6
        ext = detect_extrema(mk([0, 1, 4, 4, 3, 2, 2, 5, 0]))
        assert set(ext.maxima) == {2, 7}
        assert set(ext.minima) == {0, 5, 8}

    def test_non_extremal_plateau_ignored(self):
        # the (2,2) shelf inside a rise is neither max nor min
        ext = detect_extrema(mk([1, 2, 2, 3]))
        assert ext.maxima == (3,)
        assert ext.minima == (0,)

    def test_interleaving(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            vals = rng.integers(0, 5, size=rng.integers(1, 40)).astype(float)
            ext = detect_extrema(mk(vals))
            walk = sorted(
                [(p, "M") for p in ext.maxima] + [(p, "m") for p in ext.minima]
            )
            kinds = "".join(k for _, k in walk)
            assert "MM" not in kinds and "mm" not in kinds


class TestTransform:
    def test_two_peak_example(self):
        assert transform(mk([0, 2, 1, 3, 0])) == [
            FeatureTriple(3, 3.0, 0.0),
            FeatureTriple(1, 2.0, 1.0),
        ]

    def test_single_peak(self):
        assert transform(mk([1, 2, 3])) == [FeatureTriple(2, 3.0, 1.0)]

    def test_mirror_swaps_positions_not_levels(self):
        assert transform(mk([0, 3, 1, 2, 0])) == [
            FeatureTriple(1, 3.0, 0.0),
            FeatureTriple(3, 2.0, 1.0),
        ]

    def test_single_point_births_and_dies_at_itself(self):
        assert transform(mk([7])) == [FeatureTriple(0, 7.0, 7.0)]

    def test_constant_spectrum(self):
        assert transform(mk([5, 5, 5])) == [FeatureTriple(0, 5.0, 5.0)]

    def test_equal_peaks_elder_is_leftmost(self):
        # both peaks born at 2; the left one must survive to the global min
        got = transform(mk([0, 2, 1, 2, 0]))
        assert got == [
            FeatureTriple(1, 2.0, 0.0),
            FeatureTriple(3, 2.0, 1.0),
        ]

    def test_equal_saddles_pair_leftmost(self):
        # minima at positions 2 and 4 share the value 1
        got = transform(mk([0, 3, 1, 2, 1, 2, 0]))
        deaths = {t.position: t.death for t in got}
        assert deaths == {1: 0.0, 3: 1.0, 5: 1.0}

    def test_sorted_by_descending_birth_then_position(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            vals = rng.integers(0, 6, size=30).astype(float)
            got = transform(mk(vals))
            keys = [(-t.birth, t.position) for t in got]
            assert keys == sorted(keys)

    def test_one_triple_per_maximum(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s = mk(rng.uniform(0, 9, size=rng.integers(1, 60)))
            assert len(transform(s)) == len(detect_extrema(s).maxima)

    def test_global_feature_dies_at_global_min(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            vals = rng.integers(0, 8, size=rng.integers(2, 50)).astype(float)
            got = transform(mk(vals))
            # first triple is the elder of elders: highest birth, leftmost
            assert got[0].death == vals.min()
            assert got[0].birth == vals.max()

    def test_deaths_are_realized_values(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            vals = rng.uniform(0, 9, size=rng.integers(1, 60))
            image = set(vals.tolist())
            for t in transform(mk(vals)):
                assert t.death in image
                assert t.birth >= t.death

    def test_births_match_intensity_at_position(self):
        vals = np.array([0.0, 4.0, 2.0, 5.0, 1.0, 3.0, 0.5])
        for t in transform(mk(vals)):
            assert t.birth == vals[t.position]


class TestOracleAgreement:
    """transform and oracle_transform must agree exactly, list for list."""

    def test_known_hard_cases(self):
        cases = [
            [5, 0, 3, 1, 4],          # two deaths at the global min
            [1, 2, 2, 3],             # interior shelf
            [2, 2, 1, 2, 2],          # plateau peaks at both ends
            [0, 1, 0, 1, 0, 1, 0],    # equal peaks and saddles everywhere
            [3, 1, 3, 1, 3],          # boundary maxima
            [1, 1, 1, 1],             # constant
            [0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0],  # descending staircase
            [1, 0, 2, 0, 3, 0, 4, 0, 5],        # ascending, saddles equal
        ]
        for vals in cases:
            s = mk(vals)
            assert transform(s) == oracle_transform(s), vals

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_tied_grids(self, values):
        s = mk(values)
        assert transform(s) == oracle_transform(s)

    @given(
        st.lists(
            st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_on_float_spectra(self, values):
        s = mk(values)
        assert transform(s) == oracle_transform(s)

    def test_matches_oracle_on_longer_seeded_spectra(self):
        rng = np.random.default_rng(2024)
        for trial in range(150):
            q = int(rng.integers(1, 400))
            if trial % 3 == 0:
                vals = rng.integers(0, 3, size=q).astype(float)
            elif trial % 3 == 1:
                vals = rng.integers(0, 12, size=q).astype(float)
            else:
                vals = np.round(rng.uniform(0, 10, size=q), 1)
            s = mk(vals)
            assert transform(s) == oracle_transform(s)

    def test_divide_and_conquer_route_matches_oracle(self):
        # the paper's route, kept as transform's reference, on the mix of
        # the acceptance gate, which now runs transform on the kernel
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            s = _random_spectrum(rng)
            assert _transform_values(s.intensity) == oracle_transform(s)


class TestKernelTransform:
    """transform reads the pairing kernel; the divide-and-conquer route it
    replaced is its reference, triple for triple, down to the Python types."""

    @staticmethod
    def _assert_matches(values):
        values = np.asarray(values, dtype=np.float64)
        got = transform(mk(values))
        expect = _transform_values(values)
        assert got == expect, values
        for g, e in zip(got, expect):
            assert list(map(type, g)) == list(map(type, e)) == [int, float, float]

    def test_random_and_tied_spectra(self):
        rng = np.random.default_rng(48)
        for q in (2, 3, 17, 119, 1000, 3466):
            self._assert_matches(rng.uniform(0, 100, q))
            self._assert_matches(rng.integers(0, 3, q))
            self._assert_matches(np.round(rng.uniform(0, 10, q), 1))

    def test_constant_and_single_point(self):
        for vals in ([0.0], [7.5], [0.0] * 5, [3.0] * 40):
            self._assert_matches(vals)

    def test_v_shapes(self):
        for q in (3, 4, 51, 400):
            arm = np.abs(np.arange(q) - q // 2).astype(float)
            self._assert_matches(arm)  # one valley, peaks at both ends
            self._assert_matches(arm.max() - arm)  # one peak
            floor = np.zeros(2 * q + 1)
            floor[1::2] = arm + 1.0  # peaks that fall then rise again
            self._assert_matches(floor)

    def test_huge_values_with_zeros(self):
        rng = np.random.default_rng(49)
        huge = [1e300, 5e299, np.finfo(np.float64).max]
        for q in (5, 60, 300):
            self._assert_matches(np.where(rng.random(q) < 0.5, 0.0, rng.choice(huge, q)))

    def test_descending_peaks(self):
        for m in (1, 10, 500):
            self._assert_matches(_descending_peaks(m, 2 * m + 2))

    def test_many_peaks_take_seconds_not_minutes(self):
        # 20,000 peaks on 40,002 points: quadratic for the divide-and-conquer
        # route, which takes about 2 s at 8,000 peaks on a 2-core x86 machine
        s = mk(_descending_peaks(20_000, 40_002))
        t0 = time.perf_counter()
        got = transform(s)
        elapsed = time.perf_counter() - t0
        assert got == oracle_transform(s)
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


class TestReduce:
    def test_subtracts(self):
        pairs = reduce([FeatureTriple(3, 3.0, 0.0), FeatureTriple(1, 2.0, 1.0)])
        assert pairs == [PersistencePair(3, 3.0), PersistencePair(1, 1.0)]

    def test_empty(self):
        assert reduce([]) == []

    def test_zero_persistence_dropped(self):
        assert reduce([FeatureTriple(0, 5.0, 5.0)]) == []

    def test_positive_persistence_only(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            s = mk(rng.integers(0, 4, size=30).astype(float))
            assert all(p.persistence > 0 for p in reduce(transform(s)))


class TestToDiagram:
    def test_projection(self):
        d = to_diagram(transform(mk([0, 2, 1, 3, 0])))
        assert sorted(d.points) == [(2.0, 1.0), (3.0, 0.0)]

    def test_mirror_gives_identical_diagram(self):
        f = mk([0, 2, 1, 3, 0])
        g = mk([0, 3, 1, 2, 0])
        assert to_diagram(transform(f)) == to_diagram(transform(g))
        assert reduce(transform(f)) != reduce(transform(g))

    def test_multiplicity_preserved(self):
        d = to_diagram([FeatureTriple(0, 2.0, 1.0), FeatureTriple(5, 2.0, 1.0)])
        assert len(d.points) == 2

    def test_empty(self):
        assert to_diagram([]).points == ()


class TestFilterTopK:
    PAIRS = [PersistencePair(3, 3.0), PersistencePair(1, 1.0)]

    def test_half(self):
        assert filter_top_k(self.PAIRS, 50) == [PersistencePair(3, 3.0)]

    def test_identity_at_100(self):
        got = filter_top_k(self.PAIRS, 100)
        assert got == sorted(self.PAIRS, key=lambda p: p.position)

    def test_tie_kept_by_position_and_ceil_count(self):
        pairs = [PersistencePair(1, 2.0), PersistencePair(5, 2.0), PersistencePair(9, 1.0)]
        # ceil(0.34 * 3) = 2: the tie at persistence 2.0 fills both slots
        assert filter_top_k(pairs, 34) == [PersistencePair(1, 2.0), PersistencePair(5, 2.0)]
        # one slot: tie broken toward the smaller position
        assert filter_top_k(pairs, 33) == [PersistencePair(1, 2.0)]

    def test_output_in_axis_order(self):
        pairs = [PersistencePair(9, 5.0), PersistencePair(2, 4.0), PersistencePair(5, 3.0)]
        assert [p.position for p in filter_top_k(pairs, 100)] == [2, 5, 9]

    def test_empty_input(self):
        assert filter_top_k([], 50) == []

    @pytest.mark.parametrize("k", [0, -1, 100.001, 250])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match=r"k must be in \(0, 100\]"):
            filter_top_k(self.PAIRS, k)

    def test_tiny_k_still_keeps_one(self):
        assert filter_top_k(self.PAIRS, 0.001) == [PersistencePair(3, 3.0)]

    @given(
        st.lists(st.floats(0.001, 50.0, allow_nan=False), min_size=0, max_size=20),
        st.floats(0.1, 100.0, allow_nan=False),
        st.floats(0.1, 100.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_nested_selections(self, persistences, k1, k2):
        pairs = [PersistencePair(i, p) for i, p in enumerate(persistences)]
        lo, hi = sorted((k1, k2))
        kept_lo = set(filter_top_k(pairs, lo))
        kept_hi = set(filter_top_k(pairs, hi))
        assert kept_lo <= kept_hi
        assert len(kept_hi) == math.ceil(hi * len(pairs) / 100.0)

    @staticmethod
    def _reference(rows, ks):
        """Top-k vectors of the rows for each k, by the sweep oracle."""
        pairs = [reduce(oracle_transform(mk(row))) for row in rows]
        return {k: np.array([to_persistence_vector(filter_top_k(p, k), rows.shape[1])
                             for p in pairs]).reshape(rows.shape)
                for k in ks}

    @staticmethod
    def _mixed_rows(rng, q):
        """A batch that is not a whole number of blocks, cycling through
        random, tied, plateau, step and constant rows of length q."""
        n = 3 * _BLOCK + 5
        rows = np.empty((n, q))
        rows[0::5] = rng.uniform(0, 9, size=(len(range(0, n, 5)), q))
        rows[1::5] = rng.integers(0, 4, size=(len(range(1, n, 5)), q))
        for i in range(2, n, 5):  # plateaus: runs of repeated levels
            rows[i] = np.repeat(rng.integers(0, 5, size=q), rng.integers(1, 4, size=q))[:q]
        for i in range(3, n, 5):  # steps of -1, 0 or +1
            rows[i] = np.cumsum(rng.integers(-1, 2, size=q)) + q
        rows[4::5] = 2.5  # constant rows
        return rows

    def test_fast_path_matches_composition(self):
        # the batched kernel against the sweep oracle composed with the
        # public reduce / filter_top_k
        rng = np.random.default_rng(31)
        for q in range(1, 81):
            rows = self._mixed_rows(rng, q)
            ks = (0.001, 7.5, 25.0, 50.0, 99.9, 100.0)
            for k, expect in self._reference(rows, ks).items():
                assert np.array_equal(_topk_vectors(rows, (k,))[0], expect), (q, k)

    def test_several_k_match_single_k_calls(self):
        # one pairing pass for a tuple of k gives, per k, the matrix of a
        # call with that k alone
        rng = np.random.default_rng(32)
        ks = (100.0, 0.001, 25.0, 7.5, 25.0, 50.0)
        for q in (1, 2, 3, 17, 64, 121):
            rows = self._mixed_rows(rng, q)
            got = _topk_vectors(rows, ks)
            assert isinstance(got, tuple) and len(got) == len(ks)
            for k, matrix in zip(ks, got):
                assert np.array_equal(matrix, _topk_vectors(rows, (k,))[0]), (q, k)
        assert _topk_vectors(np.zeros((0, 5)), (10.0, 20.0))[1].shape == (0, 5)

    @staticmethod
    def _rows_cut_in_a_tie(rows, k):
        """The rows of a block whose cut at k falls inside a tie."""
        return [i for i, row in enumerate(rows) if TestFilterTopK._cut_in_a_tie(row[None, :], k)]

    @staticmethod
    def _zero_floor_rows(heights):
        """One row per list of heights: peaks on a zero floor, so each
        peak's persistence is its height; no heights make a constant row."""
        q = 2 * max(map(len, heights)) + 1
        rows = np.zeros((len(heights), q))
        for row, h in zip(rows, heights):
            row[1:2 * len(h):2] = h
        return rows

    def _assert_every_k_order(self, rows, ks):
        expect = self._reference(rows, ks)
        for order in (sorted(ks), sorted(ks, reverse=True), ks + ks[::-1]):
            got = _topk_vectors(rows, tuple(order))
            assert len(got) == len(order)
            for k, matrix in zip(order, got):
                assert np.array_equal(matrix, expect[k]), (order, k)

    def test_cuts_outside_ties(self):
        # distinct persistences in every row: the peaks at or above each
        # row's cut are the kept ones, with no tie pass
        rows = self._zero_floor_rows([[5, 1, 4, 2, 3], [7, 6], [9], [], [2.5, 8, 1.5, 6, 4, 3, 7]])
        ks = (10.0, 25.0, 50.0, 100.0)
        for k in ks:
            assert not self._rows_cut_in_a_tie(rows, k), k
        self._assert_every_k_order(rows, ks)

    def test_one_row_cut_in_a_tie_at_one_k(self):
        # the middle row keeps 3 of 6 at k 50: one above the tied three,
        # then the leftmost two of them; at k 10 its cut is the 5, alone
        rows = self._zero_floor_rows([[9, 8, 7, 6, 5, 4], [3, 5, 3, 1, 3, 4], [1, 6, 2, 5, 3, 4]])
        assert self._rows_cut_in_a_tie(rows, 50.0) == [1]
        assert self._rows_cut_in_a_tie(rows, 10.0) == []
        self._assert_every_k_order(rows, (10.0, 50.0))
        self._assert_every_k_order(rows[1:2], (10.0, 50.0))

    def test_denoise_matches_composition(self):
        spec = SimulationSpec(size=8, n_mz=300, n_peaks=6, seed=11)
        image, _ = generate_ground_truth(spec)
        noisy = add_noise(image, NoiseModel("gaussian", 0.3, seed=11))
        for k, expect in self._reference(noisy.spectra, (10.0, 25.0)).items():
            assert np.array_equal(denoise(noisy, k).spectra, expect)

    @staticmethod
    def _cut_in_a_tie(rows, k):
        """Whether some row's rank ceil(k% of m) falls inside a run of equal
        persistences, so that only part of the run is kept."""
        for row in rows:
            pers = sorted((p.persistence for p in reduce(oracle_transform(mk(row)))),
                          reverse=True)
            keep = math.ceil(k * len(pers) / 100.0)
            if 0 < keep < len(pers) and pers[keep - 1] == pers[keep]:
                return True
        return False

    def test_ties_at_the_cut(self):
        # the kernel keeps the peaks above each row's cut value and the
        # leftmost of those equal to it; the oracle ranks them all by sort
        ks = (0.001, 33.3, 50.0, 100.0)
        x = np.arange(61)
        odd = x % 2.0  # 30 peaks, all of persistence 1
        raised = odd.copy()
        raised[[7, 31, 49]] = 3.0  # three peaks above the cut, then the ties
        rows = np.stack([odd, (x % 4 == 1) * 1.0, raised, np.full(x.size, 2.5),
                         odd * (1 + x // 20), odd[::-1]])  # peak counts differ per row
        assert _BLOCK >= len(rows)
        for k in (33.3, 50.0):
            assert self._cut_in_a_tie(rows, k)
        # Poisson counts on the full simulator axis tie often
        image, _ = generate_ground_truth(SimulationSpec(size=8, n_peaks=6, seed=13))
        noisy = add_noise(image, NoiseModel("poisson", 1.0, seed=13)).spectra[:_BLOCK + 2]
        assert noisy.shape[1] == 3466 and self._cut_in_a_tie(noisy, 33.3)
        for block in (rows, noisy):
            expect = self._reference(block, ks)
            for k, matrix in zip(ks, _topk_vectors(block, ks)):
                assert np.array_equal(matrix, expect[k]), k


class TestPairBlock:
    """The pointer-jumping kernel against binary lifting over range tables,
    array for array: rows, positions, persistences and deaths in position order."""

    @staticmethod
    def _assert_matches(rows):
        rows = np.asarray(rows, dtype=np.float64)
        got = _pair_block(rows)
        expect = reference_pair_block(rows)
        for g, e in zip(got, expect, strict=True):
            assert g.dtype == e.dtype
            assert np.array_equal(g, e), rows

    @staticmethod
    def _v_rows(m, b=3, valley=0.5):
        """Rows of m peaks whose heights fall then rise again: each arm's
        elders lie beyond the other arm's peaks, one jump apiece. The valleys
        are at ``valley`` and position 0 at 0, so no valley is at the row
        minimum unless ``valley`` is 0 (a zero floor), where searches stop."""
        rows = np.full((b, 2 * m + 1), float(valley))
        rows[:, 0] = 0.0
        for r in range(b):
            rows[r, 1::2] = np.abs(np.arange(m) - m / 2 + 0.25 * r) + 1.0
        return rows

    def test_random_rows(self):
        rng = np.random.default_rng(41)
        for q in (4, 5, 17, 64, 200, 1000):
            self._assert_matches(rng.uniform(0, 9, size=(_BLOCK, q)))
            self._assert_matches(rng.normal(size=(3, q)))

    def test_ties_and_plateaus(self):
        rng = np.random.default_rng(42)
        for q in (4, 9, 30, 300):
            self._assert_matches(rng.integers(0, 3, size=(_BLOCK, q)))
            rows = np.array([np.repeat(rng.integers(0, 4, size=q), rng.integers(1, 5, size=q))[:q]
                             for _ in range(_BLOCK)])
            self._assert_matches(rows)

    def test_zero_and_constant_rows(self):
        for q in (1, 2, 3, 50):
            self._assert_matches(np.zeros((_BLOCK, q)))
            self._assert_matches(np.arange(_BLOCK, dtype=float)[:, None] + np.zeros(q))

    def test_every_short_row(self):
        # every row of length 1, 2 and 3 over three levels, in one block each
        for q in (1, 2, 3):
            grid = np.stack(np.meshgrid(*[np.arange(3.0)] * q, indexing="ij"), -1)
            self._assert_matches(grid.reshape(-1, q))

    def test_staircases(self):
        rng = np.random.default_rng(43)
        for q in (2, 3, 40, 400):
            steps = rng.integers(-1, 2, size=(_BLOCK, q))
            self._assert_matches(np.cumsum(steps, axis=1))
            ramp = np.arange(q, dtype=float)
            self._assert_matches(np.stack([ramp, ramp[::-1], ramp % 3, -(ramp % 4)]))

    @given(st.integers(1, _BLOCK), st.integers(1, 60), st.data())
    @settings(max_examples=200, deadline=None)
    def test_small_integer_blocks(self, b, q, data):
        values = data.draw(st.lists(st.integers(0, 4), min_size=b * q, max_size=b * q))
        self._assert_matches(np.reshape(values, (b, q)))

    def test_row_ends(self):
        # every pairing of how a row starts and ends: on a plateau at the top
        # or bottom, on a minimum, on a peak; one row per block and all at once
        starts = ([2, 2, 1], [0, 0, 1], [0, 2, 1], [2, 0, 1])
        ends = ([1, 2, 2], [1, 0, 0], [1, 2, 0], [1, 0, 2])
        rows = np.array([s + [3, 1, 2, 0] + e for s in starts for e in ends], dtype=float)
        for row in rows:
            self._assert_matches(row[None, :])
        for s in range(0, len(rows), _BLOCK):
            self._assert_matches(rows[s:s + _BLOCK])
        self._assert_matches(rows)

    def test_block_ending_on_a_peak(self):
        # the last position of the last row is a peak, so the block's last
        # extremum is its last peak and the clamped valley index is read
        for rows in ([[0, 1]], [[5]], [[1], [0], [2]], [[0, 2, 1, 3], [1, 0, 0, 2]],
                     [[2, 2, 0, 1], [3, 1, 1, 1], [0, 1, 1, 2]]):
            rows = np.asarray(rows, dtype=float)
            last = rows[-1]
            assert last.size == 1 or last[-1] > last[-2]
            self._assert_matches(rows)

    def test_mixed_short_blocks(self):
        rng = np.random.default_rng(48)
        for b in (1, 3, _BLOCK):
            for q in (1, 2, 3, 4):
                for _ in range(20):
                    ramp = np.arange(q, dtype=float)[::rng.choice((1, -1))]
                    kinds = (rng.integers(0, 3, size=q).astype(float), rng.uniform(0, 2, size=q),
                             np.full(q, rng.integers(0, 3)), ramp)
                    rows = np.array([kinds[i] for i in rng.integers(0, len(kinds), size=b)])
                    self._assert_matches(rows)

    @given(st.integers(1, _BLOCK), st.integers(1, 40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_valleys_are_the_minima_between_neighbouring_peaks(self, b, q, data):
        # rows of small integers in runs; the valley carried between two
        # neighbouring peaks of a row, as _jump first sees it, is the least
        # value strictly between them
        values = data.draw(st.lists(st.integers(0, 3), min_size=b * q, max_size=b * q))
        again = data.draw(st.lists(st.booleans(), min_size=b * q, max_size=b * q))
        for i in range(b * q):
            if again[i] and i % q:
                values[i] = values[i - 1]
        rows = np.reshape(values, (b, q)).astype(float)
        lows = []
        jump = persistence._jump

        def spy(height, link, low, act, thr, rounds):
            lows.append(low.copy())
            return jump(height, link, low, act, thr, rounds)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(persistence, "_jump", spy)
            self._assert_matches(rows)
        valley = []  # between each peak and the next, None across a row end
        for x in rows.tolist():
            peaks = [i for i in range(q)
                     if (i == 0 or x[i] > x[i - 1]) and (i == q - 1 or x[i] >= x[i + 1])]
            valley += [min(x[p + 1:r]) for p, r in zip(peaks, peaks[1:])] + [None]
        n = len(valley)
        (low,) = lows
        assert low.size == 2 * n + 2
        for i, v in enumerate(valley):
            if v is not None:
                assert low[n + 1 + i] == v  # peak i's right search
                assert low[i + 1] == v  # peak i + 1's left search

    @staticmethod
    def _count_lifts(monkeypatch):
        """Spy on binary lifting: the list it returns gets each call's count
        of open searches."""
        lifted = []
        climb = persistence._climb

        def spy(height, link, low, act, thr):
            lifted.append(act.size)
            return climb(height, link, low, act, thr)

        monkeypatch.setattr(persistence, "_climb", spy)
        return lifted

    def test_v_rows_reach_the_cap_and_lift(self, monkeypatch):
        lifted = self._count_lifts(monkeypatch)
        rows = self._v_rows(200)
        assert 200 // 2 > 3 * (rows.shape[1] + 2).bit_length()  # an arm outlasts the cap
        self._assert_matches(rows)
        assert len(lifted) == 1 and lifted[0] > 0

    def test_lifting_matches_the_sweep_oracle(self, monkeypatch):
        # the lifting fallback against the sweep oracle, not against
        # reference_pair_block, which lifts over the same tables
        lifted = self._count_lifts(monkeypatch)
        rng = np.random.default_rng(47)
        v = self._v_rows(200, _BLOCK)
        noise = rng.uniform(0, 9, size=(_BLOCK // 2, v.shape[1]))
        # on even valleys every saddle is the same whichever elder is found;
        # valleys that deepen away from the centre make it depend on where
        # each search stops, on the far side of the V too
        uneven = v.copy()
        depth = 0.004 * np.abs(np.arange(0, v.shape[1], 2) - v.shape[1] / 2)
        uneven[:, 0::2] = 0.9 - depth + rng.uniform(0, 0.002, size=uneven[:, 0::2].shape)
        ks = (7.5, 25.0, 100.0)
        for rows in (v, np.concatenate((v[:_BLOCK // 2], noise)), uneven):
            lifted.clear()
            expect = TestFilterTopK._reference(rows, ks)
            for k, got in zip(ks, _topk_vectors(rows, ks)):
                assert np.array_equal(got, expect[k]), k
            assert len(lifted) == 1 and lifted[0] > 0

    @staticmethod
    def _forbid_lifting(monkeypatch):
        def refuse(*args):
            raise AssertionError("binary lifting ran")

        monkeypatch.setattr(persistence, "_climb", refuse)

    @staticmethod
    def _assert_deaths(rows, deaths):
        """The deaths of _pair_block, sign bits included, equal the given list."""
        got = _pair_block(np.asarray(rows, dtype=np.float64))[3]
        assert got.view(np.int64).tolist() == np.array(deaths).view(np.int64).tolist(), got

    def test_zero_floor_v_rows_need_no_lifting(self, monkeypatch):
        # every valley is at the row minimum, so each search stops at its
        # first valley and no arm reaches the jump cap
        self._forbid_lifting(monkeypatch)
        for b in (3, _BLOCK):
            rows = self._v_rows(200, b, valley=0.0)
            assert 200 // 2 > 3 * (rows.shape[1] + 2).bit_length()
            self._assert_matches(rows)
        # one valley at the minimum, between the arms, is enough
        rows = self._v_rows(200)
        rows[:, 200] = 0.0
        rows[:, 0] = 0.5
        self._assert_matches(rows)

    def test_stop_on_zero_floors(self):
        # clamped Gaussian noise, Poisson counts and integer plateaus put
        # many valleys at the row minimum
        rng = np.random.default_rng(49)
        for q in (2, 5, 40, 400, 3466):
            self._assert_matches(np.maximum(rng.normal(size=(_BLOCK, q)), 0.0))
            self._assert_matches(rng.poisson(1.0, size=(_BLOCK, q)).astype(float))
            self._assert_matches(rng.integers(0, 3, size=(_BLOCK, q)))
            self._assert_matches(np.array([np.repeat(rng.integers(0, 3, size=q),
                                                     rng.integers(1, 5, size=q))[:q]
                                           for _ in range(_BLOCK)]))

    def test_stop_where_the_minimum_is_rare(self):
        rng = np.random.default_rng(50)
        for q in (3, 4, 9, 60, 500):
            rows = rng.uniform(1, 9, size=(_BLOCK, q))
            rows[0, q // 2] = 0.0  # once, in a valley
            rows[1, 0] = 0.0  # only at the left end
            rows[2, -1] = 0.0  # only at the right end
            rows[3, [0, -1]] = 0.0  # only at both ends
            rows[4, [q // 3, 2 * q // 3]] = -1.0  # twice
            rows[5, 1] = 0.0  # next to the left end
            rows[6, -2] = 0.0  # next to the right end
            self._assert_matches(rows)
            for row in rows:
                self._assert_matches(row[None, :])

    def test_row_end_valleys_never_stop_a_search(self):
        # The valley after a row's last peak is read across the row end.
        # Here it equals the next row's minimum, where only the sign of the
        # next row's global death would tell, or its own row's minimum,
        # where the next row's global death would change. Deaths and their
        # sign bits as the full search reads them.
        rows = [[1, 3, 2, -0.0, -0.0], [0.0, 5, 1, 2, 0.0]]
        self._assert_matches(rows)
        self._assert_deaths(rows, [-0.0, 0.0, 1.0])
        rows = [[3, 1, 1], [0, 5, 0]]
        self._assert_matches(rows)
        self._assert_deaths(rows, [1.0, 0.0])

    def test_signed_zero_deaths(self):
        # Rows holding 0.0 and -0.0 search to the end: every death keeps
        # the sign bit that the full search reads, with the row minimum at
        # zero and below it.
        rows = [[0.0, 2, -0.0, 1, 0.0, 3, -0.0, 0.0, 2, 0.0, 1, -0.0],
                [-0.0, 4, 0.0, 0.0, 3, -0.0, 5, 0.0, -0.0, 5, 0.0, 1]]
        self._assert_matches(rows)
        self._assert_deaths(rows, [0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0])
        rows = [[1, -0.0, 2, -1, 3, 0.0, -0.0, 2, 0.0, 4, -0.0, 1],
                [0.0, 3, -0.0, 2, -2, 2, 0.0, 4, -0.0, 0.0, 1, -2]]
        self._assert_matches(rows)
        self._assert_deaths(rows, [-0.0, -1.0, 0.0, 0.0, -1.0, -0.0, -2.0, -0.0, 0.0, -2.0, 0.0])
        # A V of 50 peaks whose arms outlast the jump cap, with runs of
        # signed zeros between peaks and one valley at -1, the minimum.
        # The searches still open at the cap climb, folding their valleys
        # near to far as the jumps do, so each zero death is the farthest
        # of the lowest valleys passed, as the sequential search reads it.
        row = []
        for i in range(50):
            row.append(abs(i - 25) + 1.0)
            row += [-0.0 if (2 * i + j) % 3 == 0 else 0.0 for j in range(1 + i % 3)]
        row = np.array(row)
        row[np.flatnonzero(row == 0)[16]] = -1.0
        assert 25 > 3 * (row.size + 2).bit_length()
        self._assert_matches(row[None, :])
        deaths = np.full(50, -0.0)
        deaths[[0, 49]] = -1.0
        self._assert_deaths(row[None, :], deaths)

    @staticmethod
    def _sequence_blocks():
        """Blocks of 1-8 rows and 1 to about 300 columns from a fixed 64-bit
        linear congruential sequence, not from numpy.random, so that no change of
        numpy's generator streams can move them. Runs of levels that mix
        0.0 and -0.0, with and without negative values; every fifth block
        holds V rows whose arms can outlast the jump cap, with runs of
        signed zeros between the peaks and some valleys at -1."""
        state = 2023

        def draw(m):
            nonlocal state
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            return (state >> 33) % m

        palettes = ((0.0, -0.0, 1.0, 2.0), (0.0, -0.0, 1.0, 2.0, -1.0, -2.0),
                    (0.0, -0.0, 0.5, 3.0, 3.0), (-0.0, 1.0, 2.0, -3.0))
        blocks = []
        for t in range(200):
            b = 1 + draw(_BLOCK)
            rows = []
            if t % 5 == 4:
                for _ in range(b):
                    m = 40 + draw(60)
                    row = []
                    for i in range(m):
                        row.append(abs(i - m // 2) + 1.0 + 0.5 * draw(2))
                        row += [(0.0, -0.0, 0.0, -1.0)[draw(4)] for _ in range(1 + draw(3))]
                    rows.append(row)
                q = min(map(len, rows))
            else:
                levels = palettes[t % 4]
                q = 1 + draw(300)
                for _ in range(b):
                    row = []
                    while len(row) < q:
                        row += [levels[draw(len(levels))]] * (1 + draw(3))
                    rows.append(row)
            blocks.append(np.array([row[:q] for row in rows]))
        return blocks

    @classmethod
    def _golden_digest(cls):
        """SHA-256 of the bytes of _pair_block's four arrays on the sequence
        blocks, and the set of sign bits of the zero deaths."""
        digest = hashlib.sha256()
        zeros = set()
        for rows in cls._sequence_blocks():
            got = _pair_block(rows)
            for a in got:
                digest.update(np.asarray(a, dtype="<i8" if a.dtype.kind == "i" else "<f8").tobytes())
            death = got[3]
            zeros.update(np.signbit(death[death == 0]).tolist())
        return digest.hexdigest(), zeros

    def test_golden_digest_with_sign_bits(self, monkeypatch):
        # np.array_equal cannot see the sign of a zero, and the range-table
        # reference does not define it; the bytes of all four arrays can.
        # The digest was recorded once the searches open at the jump cap
        # climbed over their own links, which made it one value however
        # far the jumping got.
        lifted = self._count_lifts(monkeypatch)
        digest, zeros = self._golden_digest()
        assert zeros == {False, True} and sum(lifted) > 0
        assert digest == GOLDEN_PAIR_BLOCK_SHA256

    def test_golden_digest_does_not_depend_on_simd_dispatch(self):
        # numpy picks its SIMD loops by the CPU at run time. A fresh
        # interpreter limited to numpy's baseline features must give the
        # kernel the same bytes as this one.
        baseline, on = _simd_features()
        if not on:
            pytest.skip("numpy dispatches no SIMD extension here")
        on, digest = run_digest_in_child("test_persistence", "TestPairBlock._golden_digest()[0]",
                                         {"NPY_ENABLE_CPU_FEATURES": " ".join(baseline)})
        if on:  # numpy ignores feature names it does not know
            pytest.skip(f"the baseline interpreter still dispatches {on}")
        assert digest == self._golden_digest()[0]

    def test_random_rows_need_no_lifting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("binary lifting ran")

        monkeypatch.setattr(persistence, "_climb", refuse)
        rng = np.random.default_rng(44)
        self._assert_matches(rng.normal(size=(_BLOCK, 3466)))

    def test_sequence_blocks_match_the_sequential_search_in_bytes(self, monkeypatch):
        # every byte of the four arrays, zero signs included, against a
        # plain elder search along each row
        lifted = self._count_lifts(monkeypatch)
        for rows in self._sequence_blocks():
            got = _pair_block(rows)
            for g, e in zip(got, sequential_pair_block(rows), strict=True):
                assert g.dtype == e.dtype and g.tobytes() == e.tobytes(), rows
        assert sum(lifted) > 0

    @pytest.mark.parametrize("rounds", [0, 1, 2])
    def test_lifting_finishes_any_partial_jump(self, monkeypatch, rounds):
        # cut the jumping short: searches halfway to their elders finish by
        # lifting, to the same bytes as the run that is not cut
        blocks = self._sequence_blocks()
        full = [_pair_block(rows) for rows in blocks]
        jump = persistence._jump

        def short(height, link, low, act, thr, _):
            return jump(height, link, low, act, thr, rounds)

        monkeypatch.setattr(persistence, "_jump", short)
        rng = np.random.default_rng(45)
        for q in (1, 2, 3, 33, 250):
            self._assert_matches(rng.uniform(0, 9, size=(_BLOCK, q)))
            self._assert_matches(rng.integers(0, 3, size=(_BLOCK, q)))
        self._assert_matches(self._v_rows(30))
        for rows, expect in zip(blocks, full):
            for g, e in zip(_pair_block(rows), expect):
                assert g.tobytes() == e.tobytes(), rows

    def test_wide_block_memory(self):
        # no table as wide as the row: an 8 x 200,000 block of noise stays
        # far below the 16 * 8 * q * log2(q) bytes of range tables; raised V
        # rows of 40,001 columns, whose far arms climb, stay under the bound
        rng = np.random.default_rng(46)
        for rows in (np.abs(rng.normal(size=(_BLOCK, 200_000))), self._v_rows(20_000, _BLOCK)):
            tracemalloc.start()
            try:
                _topk_vectors(rows, (25.0,))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 150e6, rows.shape


class TestFeatureCsv:
    def test_triples_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        mz = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        write_triples_csv(transform(mk([0, 2, 1, 3, 0], mz=mz)), mz, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "position_index,mz,birth,death,persistence"
        assert lines[1] == "3,40.0,3.0,0.0,3.0"
        assert lines[2] == "1,20.0,2.0,1.0,1.0"

    def test_pairs_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        mz = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        pairs = reduce(transform(mk([0, 2, 1, 3, 0], mz=mz)))
        write_pairs_csv(pairs, mz, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "position_index,mz,persistence"
        assert lines[1:] == ["3,40.0,3.0", "1,20.0,1.0"]
