"""Data containers, CSV loaders, and the PGM writer."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import read_pgm

from topopeaks import (
    LabeledDataset,
    MSImage,
    Spectrum,
    load_dataset_csv,
    load_spectrum_csv,
    write_pgm,
    write_spectrum_csv,
)


class TestSpectrum:
    def test_basic_construction(self):
        s = Spectrum(mz=[1.0, 2.0, 3.5], intensity=[0.0, 5.0, 1.0])
        assert len(s) == 3
        assert s.mz.dtype == np.float64
        np.testing.assert_array_equal(s.intensity, [0.0, 5.0, 1.0])

    def test_arrays_are_frozen(self):
        s = Spectrum(mz=[1.0, 2.0], intensity=[1.0, 2.0])
        with pytest.raises(ValueError):
            s.intensity[0] = 9.0

    def test_single_point_allowed(self):
        assert len(Spectrum(mz=[10.0], intensity=[4.0])) == 1

    @pytest.mark.parametrize(
        "mz,intensity,msg",
        [
            ([], [], "at least one point"),
            ([1.0, 2.0], [1.0], "lengths differ"),
            ([2.0, 1.0], [1.0, 1.0], "strictly increasing"),
            ([1.0, 1.0], [1.0, 1.0], "strictly increasing"),
            ([1.0, 2.0], [1.0, -0.5], "non-negative"),
            ([1.0, np.inf], [1.0, 1.0], "finite"),
            ([1.0, 2.0], [np.nan, 1.0], "finite"),
        ],
    )
    def test_rejects_bad_input(self, mz, intensity, msg):
        with pytest.raises(ValueError, match=msg):
            Spectrum(mz=mz, intensity=intensity)


class TestMSImage:
    def test_pixel_indexing_is_row_major(self):
        mz = np.array([1.0, 2.0])
        spectra = np.arange(12, dtype=float).reshape(6, 2)
        img = MSImage(width=3, height=2, mz=mz, spectra=spectra)
        # pixel(row, col) -> intensity row at flat index row*width + col
        np.testing.assert_array_equal(img.pixel(0, 0), [0.0, 1.0])
        np.testing.assert_array_equal(img.pixel(0, 2), [4.0, 5.0])
        np.testing.assert_array_equal(img.pixel(1, 0), [6.0, 7.0])
        with pytest.raises(IndexError):
            img.pixel(2, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            MSImage(width=2, height=2, mz=np.array([1.0]), spectra=np.zeros((3, 1)))

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            MSImage(width=1, height=1, mz=np.array([1.0]), spectra=np.array([[-1.0]]))

    @pytest.mark.parametrize(
        "mz,msg",
        [
            ([3.0, 2.0, 1.0], "strictly increasing"),
            ([1.0, 1.0, 2.0], "strictly increasing"),
            ([1.0, np.nan, 2.0], "finite"),
            ([], "at least one point"),
        ],
    )
    def test_axis_checked_as_for_a_spectrum(self, mz, msg):
        # every pixel must make a valid Spectrum on the shared axis
        with pytest.raises(ValueError, match=msg):
            MSImage(width=2, height=1, mz=mz, spectra=np.ones((2, len(mz))))


class TestLabeledDataset:
    def test_properties_and_access(self):
        ds = LabeledDataset(
            mz=np.array([1.0, 2.0, 3.0]),
            intensities=np.arange(6, dtype=float).reshape(2, 3),
            labels=np.array([0, 1]),
            groups=("a", "b"),
        )
        assert ds.n == 2 and ds.q == 3
        np.testing.assert_array_equal(ds.spectrum(1).intensity, [3.0, 4.0, 5.0])

    def test_subset_keeps_alignment(self):
        ds = LabeledDataset(
            mz=np.array([1.0, 2.0]),
            intensities=np.arange(8, dtype=float).reshape(4, 2),
            labels=np.array([0, 1, 0, 1]),
            groups=("a", "a", "b", "b"),
        )
        sub = ds.subset([3, 0])
        np.testing.assert_array_equal(sub.labels, [1, 0])
        assert sub.groups == ("b", "a")
        np.testing.assert_array_equal(sub.intensities[0], [6.0, 7.0])

    def test_label_values_checked(self):
        with pytest.raises(ValueError, match="0 or 1"):
            LabeledDataset(
                mz=np.array([1.0]),
                intensities=np.array([[1.0]]),
                labels=np.array([2]),
                groups=("a",),
            )

    def test_group_count_checked(self):
        with pytest.raises(ValueError, match="group ids"):
            LabeledDataset(
                mz=np.array([1.0]),
                intensities=np.array([[1.0]]),
                labels=np.array([0]),
                groups=("a", "b"),
            )


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        s = Spectrum(mz=[100.0, 100.25, 101.0], intensity=[0.0, 3.125, 7.5])
        write_spectrum_csv(s, path)
        back = load_spectrum_csv(path)
        np.testing.assert_array_equal(back.mz, s.mz)
        np.testing.assert_array_equal(back.intensity, s.intensity)

    def test_rows_sorted_by_mz(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("3.0,30\n1.0,10\n2.0,20\n")
        s = load_spectrum_csv(path)
        np.testing.assert_array_equal(s.mz, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(s.intensity, [10.0, 20.0, 30.0])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,10\n\n2.0,20\n\n")
        assert len(load_spectrum_csv(path)) == 2

    def test_error_reports_one_based_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,10\n2.0,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_spectrum_csv(path)

    def test_negative_intensity_reported_with_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,10\n2.0,20\n3.0,-4\n")
        with pytest.raises(ValueError, match="line 3: negative intensity"):
            load_spectrum_csv(path)

    def test_duplicate_mz_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,10\n1.0,20\n")
        with pytest.raises(ValueError, match="duplicate mz"):
            load_spectrum_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_spectrum_csv(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_spectrum_csv(tmp_path / "nope.csv")


class TestDatasetCsv:
    def _write(self, tmp_path, spectra_text, labels_text):
        sp = tmp_path / "spectra.csv"
        lp = tmp_path / "labels.csv"
        sp.write_text(spectra_text)
        lp.write_text(labels_text)
        return sp, lp

    def test_round_trip(self, tmp_path):
        sp, lp = self._write(
            tmp_path,
            "100.0,200.0,300.0\n1,2,3\n4,5,6\n",
            "0,patient-1\n1,patient-2\n",
        )
        ds = load_dataset_csv(sp, lp)
        assert ds.n == 2 and ds.q == 3
        np.testing.assert_array_equal(ds.mz, [100.0, 200.0, 300.0])
        np.testing.assert_array_equal(ds.labels, [0, 1])
        assert ds.groups == ("patient-1", "patient-2")

    def test_row_length_mismatch_line_number(self, tmp_path):
        sp, lp = self._write(tmp_path, "1.0,2.0\n1,2\n1,2,3\n", "0,a\n1,b\n")
        with pytest.raises(ValueError, match="line 3: expected 2 intensities, got 3"):
            load_dataset_csv(sp, lp)

    def test_bad_label_line_number(self, tmp_path):
        sp, lp = self._write(tmp_path, "1.0\n1\n2\n", "0,a\n7,b\n")
        with pytest.raises(ValueError, match="line 2: label must be 0 or 1"):
            load_dataset_csv(sp, lp)

    def test_count_mismatch(self, tmp_path):
        sp, lp = self._write(tmp_path, "1.0\n1\n2\n3\n", "0,a\n1,b\n")
        with pytest.raises(ValueError, match="label count 2 does not match spectrum count 3"):
            load_dataset_csv(sp, lp)


class TestPgm:
    def test_header_and_scaling(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(np.array([[0.0, 127.5], [255.0, 51.0]]), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[-4:] == bytes([0, 128, 255, 51])

    def test_half_values_round_up(self, tmp_path):
        path = tmp_path / "img.pgm"
        # 1/2 of max scales to 127.5 exactly
        write_pgm(np.array([[0.0, 1.0, 2.0]]), path)
        np.testing.assert_array_equal(read_pgm(path), [[0, 128, 255]])

    def test_constant_image_is_black(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(np.full((2, 3), 7.0), path)
        np.testing.assert_array_equal(read_pgm(path), np.zeros((2, 3)))

    def test_round_trip_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = rng.uniform(0.0, 9.0, size=(5, 4))
        path = tmp_path / "img.pgm"
        write_pgm(grid, path)
        out = read_pgm(path)
        assert out.shape == (5, 4)
        assert out.min() == 0 and out.max() == 255

    def test_rejects_negative(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            write_pgm(np.array([[-1.0, 2.0]]), tmp_path / "img.pgm")
