"""Persistence transformation: extrema, pairing, reduction, filtering.

transform() and oracle_transform() are independent routes to the same answer;
a large part of this file pits them against each other on adversarial inputs
(ties, plateaus, boundary peaks, near-degenerate saddles).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import mk, to_persistence_vector
from hypothesis import given, settings
from hypothesis import strategies as st

from topopeaks import (
    FeatureTriple,
    NoiseModel,
    PersistencePair,
    SimulationSpec,
    add_noise,
    denoise,
    detect_extrema,
    filter_top_k,
    generate_ground_truth,
    oracle_transform,
    reduce,
    to_diagram,
    transform,
    write_pairs_csv,
    write_triples_csv,
)
from topopeaks.persistence import _BLOCK, _topk_vectors


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

    def test_fast_path_matches_composition(self):
        # the batched kernel against the sweep oracle composed with the
        # public reduce / filter_top_k, on a batch that is not a whole
        # number of blocks
        rng = np.random.default_rng(31)
        n = 3 * _BLOCK + 5
        for q in range(1, 81):
            rows = np.empty((n, q))
            rows[0::5] = rng.uniform(0, 9, size=(len(range(0, n, 5)), q))
            rows[1::5] = rng.integers(0, 4, size=(len(range(1, n, 5)), q))
            for i in range(2, n, 5):  # plateaus: runs of repeated levels
                rows[i] = np.repeat(rng.integers(0, 5, size=q), rng.integers(1, 4, size=q))[:q]
            for i in range(3, n, 5):  # steps of -1, 0 or +1
                rows[i] = np.cumsum(rng.integers(-1, 2, size=q)) + q
            rows[4::5] = 2.5  # constant rows
            ks = (0.001, 7.5, 25.0, 50.0, 99.9, 100.0)
            for k, expect in self._reference(rows, ks).items():
                assert np.array_equal(_topk_vectors(rows, k), expect), (q, k)

    def test_denoise_matches_composition(self):
        spec = SimulationSpec(size=8, n_mz=300, n_peaks=6, seed=11)
        image, _ = generate_ground_truth(spec)
        noisy = add_noise(image, NoiseModel("gaussian", 0.3, seed=11))
        for k, expect in self._reference(noisy.spectra, (10.0, 25.0)).items():
            assert np.array_equal(denoise(noisy, k).spectra, expect)


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
