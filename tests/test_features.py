"""Dense persistence-vector features and the n x q matrix builder."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import mk, to_persistence_vector, two_class_dataset

from topopeaks import (
    LabeledDataset,
    PersistencePair,
    build_matrix,
    detect_extrema,
    filter_top_k,
    reduce,
    transform,
    write_matrix_csv,
)


def one_row_dataset(values):
    values = np.asarray(values, dtype=float)
    return LabeledDataset(
        mz=np.arange(values.size, dtype=float) + 1.0,
        intensities=values[None, :],
        labels=np.array([0]),
        groups=("g",),
    )


class TestToPersistenceVector:
    def test_placement(self):
        pairs = [PersistencePair(3, 3.0), PersistencePair(1, 1.0)]
        np.testing.assert_array_equal(
            to_persistence_vector(pairs, 5), [0.0, 1.0, 0.0, 3.0, 0.0]
        )

    def test_empty(self):
        np.testing.assert_array_equal(to_persistence_vector([], 4), np.zeros(4))

    def test_position_out_of_range(self):
        with pytest.raises(ValueError, match="position 7 outside spectrum of length 5"):
            to_persistence_vector([PersistencePair(7, 1.0)], 5)


class TestBuildMatrix:
    def test_single_spectrum_all_peaks(self):
        m = build_matrix(one_row_dataset([0, 2, 1, 3, 0]), 100)
        assert type(m) is np.ndarray and m.dtype == np.float64  # a plain array
        np.testing.assert_array_equal(m, [[0.0, 1.0, 0.0, 3.0, 0.0]])

    def test_single_spectrum_half(self):
        m = build_matrix(one_row_dataset([0, 2, 1, 3, 0]), 50)
        np.testing.assert_array_equal(m, [[0.0, 0.0, 0.0, 3.0, 0.0]])

    def test_empty_dataset(self):
        ds = LabeledDataset(
            mz=np.array([1.0, 2.0]),
            intensities=np.zeros((0, 2)),
            labels=np.zeros(0, dtype=np.int64),
            groups=(),
        )
        m = build_matrix(ds, 100)
        assert m.shape == (0, 2)

    def test_row_sparsity_is_ceil_k_m(self):
        ds = two_class_dataset(n=12, q=50, seed=5)
        for k in (10, 34, 75, 100):
            m = build_matrix(ds, k)
            for i in range(ds.n):
                pairs = reduce(transform(ds.spectrum(i)))
                expect = math.ceil(k * len(pairs) / 100.0)
                assert int(np.count_nonzero(m[i])) == expect

    def test_support_nested_in_k(self):
        ds = two_class_dataset(n=8, q=40, seed=6)
        small = build_matrix(ds, 20) != 0
        large = build_matrix(ds, 80) != 0
        assert np.all(large[small])

    def test_rows_match_manual_composition(self):
        ds = two_class_dataset(n=6, q=45, seed=8)
        m = build_matrix(ds, 40)
        for i in range(ds.n):
            pairs = filter_top_k(reduce(transform(ds.spectrum(i))), 40)
            np.testing.assert_array_equal(
                m[i], to_persistence_vector(pairs, ds.q)
            )

    def test_k_validated(self):
        with pytest.raises(ValueError, match="k must be in"):
            build_matrix(one_row_dataset([0, 1, 0]), 0)

    def test_matrix_is_read_only(self):
        m = build_matrix(one_row_dataset([0, 2, 0]), 100)
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


class TestMatrixCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "m.csv"
        ds = one_row_dataset([0, 2, 1, 3, 0])
        write_matrix_csv(build_matrix(ds, 100), ds.mz, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "1.0,2.0,3.0,4.0,5.0"
        assert lines[1] == "0.0,1.0,0.0,3.0,0.0"

    def test_one_row_per_spectrum(self, tmp_path):
        ds = two_class_dataset(n=5, q=30, seed=10)
        path = tmp_path / "m.csv"
        write_matrix_csv(build_matrix(ds, 50), ds.mz, path)
        assert len(path.read_text().splitlines()) == 6

    @pytest.mark.parametrize("values, mz", [
        (np.ones((1, 3)), [1.0, 2.0]),        # one column too many
        (np.ones(3), [1.0, 2.0, 3.0]),        # not a matrix
        (np.ones((1, 3)), [3.0, 2.0, 2.0]),   # not an m/z axis
    ])
    def test_shape_and_axis_checked(self, tmp_path, values, mz):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError):
            write_matrix_csv(values, mz, path)
        assert not path.exists()


def test_vector_positions_match_extrema_subset():
    # retained support must be a subset of detected maxima positions
    rng = np.random.default_rng(77)
    for _ in range(30):
        vals = rng.uniform(0, 9, size=60)
        s = mk(vals)
        vec = build_matrix(one_row_dataset(vals), 25)[0]
        max_positions = set(detect_extrema(s).maxima)
        assert set(np.flatnonzero(vec).tolist()) <= max_positions
