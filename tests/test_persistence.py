"""Persistence transformation: extrema, pairing, reduction, filtering.

transform() (the batched kernel), _transform_values() (the paper's
divide-and-conquer route) and oracle_transform() (a threshold sweep) are
independent routes to the same answer; a large part of this file pits them
against each other on adversarial inputs (ties, plateaus, boundary peaks,
near-degenerate saddles).
"""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest
from conftest import detect_extrema, mk, reference_pair_block, to_persistence_vector
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

    def test_denoise_matches_composition(self):
        spec = SimulationSpec(size=8, n_mz=300, n_peaks=6, seed=11)
        image, _ = generate_ground_truth(spec)
        noisy = add_noise(image, NoiseModel("gaussian", 0.3, seed=11))
        for k, expect in self._reference(noisy.spectra, (10.0, 25.0)).items():
            assert np.array_equal(denoise(noisy, k).spectra, expect)


class TestPairBlock:
    """The pointer-jumping kernel against binary lifting over range tables,
    array for array: rows, positions, persistences and deaths in keep order."""

    @staticmethod
    def _assert_matches(rows):
        rows = np.asarray(rows, dtype=np.float64)
        got = _pair_block(rows)
        expect = reference_pair_block(rows)
        for g, e in zip(got, expect, strict=True):
            assert g.dtype == e.dtype
            assert np.array_equal(g, e), rows

    @staticmethod
    def _v_rows(m, b=3):
        """Rows of m peaks on a zero floor whose heights fall then rise again:
        each arm's elders lie beyond the other arm's peaks, one jump apiece."""
        rows = np.zeros((b, 2 * m + 1))
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

    @staticmethod
    def _count_lifts(monkeypatch):
        """Spy on binary lifting: the list it returns gets each call's peak count."""
        lifted = []
        lift = persistence._lift

        def spy(rows, row, pos, left_thr, right_thr):
            lifted.append(pos.size)
            return lift(rows, row, pos, left_thr, right_thr)

        monkeypatch.setattr(persistence, "_lift", spy)
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
        # on a zero floor every saddle is 0 whichever elder is found; valleys
        # that deepen away from the centre make it depend on where each
        # search stops, on the far side of the V too
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

    def test_random_rows_need_no_lifting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("binary lifting ran")

        monkeypatch.setattr(persistence, "_lift", refuse)
        rng = np.random.default_rng(44)
        self._assert_matches(rng.normal(size=(_BLOCK, 3466)))

    @pytest.mark.parametrize("rounds", [0, 1, 2])
    def test_lifting_finishes_any_partial_jump(self, monkeypatch, rounds):
        # cut the jumping short: peaks halfway to their elders finish by lifting
        jump = persistence._jump

        def short(birth, link, low, thr, _):
            return jump(birth, link, low, thr, rounds)

        monkeypatch.setattr(persistence, "_jump", short)
        rng = np.random.default_rng(45)
        for q in (1, 2, 3, 33, 250):
            self._assert_matches(rng.uniform(0, 9, size=(_BLOCK, q)))
            self._assert_matches(rng.integers(0, 3, size=(_BLOCK, q)))
        self._assert_matches(self._v_rows(30))

    def test_wide_block_memory(self):
        # no table as wide as the row: an 8 x 200,000 block of noise stays
        # far below the 16 * 8 * q * log2(q) bytes of range tables
        rows = np.abs(np.random.default_rng(46).normal(size=(_BLOCK, 200_000)))
        tracemalloc.start()
        try:
            _topk_vectors(rows, (25.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6


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
