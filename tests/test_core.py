"""Data containers, CSV loaders, and the PGM writer."""

from __future__ import annotations

import platform
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import read_pgm, run_fresh

from topopeaks import (
    LabeledDataset,
    MSImage,
    Spectrum,
    load_dataset_csv,
    load_spectrum_csv,
    write_pgm,
    write_spectrum_csv,
)
from topopeaks.core import _Made, _write_csv


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
        assert len(Spectrum(mz=[10.0], intensity=[-0.0])) == 1  # -0.0 is not negative

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
            ([1.0, 2.0], [-1.0, np.nan], "must be finite"),  # finiteness is checked first
            ([1.0, 2.0], [1.0, -np.inf], "must be finite"),
            ([1.0, 2.0], [np.inf, 1.0], "must be finite"),
        ],
    )
    def test_rejects_bad_input(self, mz, intensity, msg):
        with pytest.raises(ValueError, match=msg):
            Spectrum(mz=mz, intensity=intensity)

    def test_order_check_allocates_no_axis_copy(self):
        # the increasing-axis test compares shifted views into one bool mask
        # (1 byte a point); np.diff would add a float64 copy of the axis
        n = 200_000
        mz, intensity = np.arange(n) * 0.25 + 100.0, np.ones(n)
        tracemalloc.start()
        try:
            s = Spectrum(_Made(mz), _Made(intensity))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.mz is mz
        assert peak <= 0.25 * mz.nbytes


class TestMSImage:
    def test_pixel_indexing_is_row_major(self):
        mz = np.array([1.0, 2.0])
        spectra = np.arange(12, dtype=float).reshape(6, 2)
        img = MSImage(width=3, height=2, mz=mz, spectra=spectra)
        # pixel (row, col) -> intensity row at flat index row*width + col
        pixel = {(row, col): img.spectra[row * img.width + col]
                 for row in range(img.height) for col in range(img.width)}
        np.testing.assert_array_equal(pixel[0, 0], [0.0, 1.0])
        np.testing.assert_array_equal(pixel[0, 2], [4.0, 5.0])
        np.testing.assert_array_equal(pixel[1, 0], [6.0, 7.0])

    def test_copies_the_callers_array(self):
        spectra = np.ones((2, 3))
        img = MSImage(width=2, height=1, mz=np.array([1.0, 2.0, 3.0]), spectra=spectra)
        spectra[0, 0] = 5.0
        np.testing.assert_array_equal(img.spectra, np.ones((2, 3)))
        assert spectra.flags.writeable and not img.spectra.flags.writeable

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
        np.testing.assert_array_equal(ds.intensities[1], [3.0, 4.0, 5.0])

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

    def test_subset_takes_integer_positions_only(self):
        ds = LabeledDataset(
            mz=np.array([1.0]),
            intensities=np.ones((3, 1)),
            labels=np.array([0, 1, 0]),
            groups=("a", "b", "c"),
        )
        # a boolean mask must not be read as the row numbers 1, 0, 1
        for idx in ([True, False, True], np.array([True, False, True]), [0.0, 2.0]):
            with pytest.raises(ValueError, match="integers"):
                ds.subset(idx)
        assert ds.subset(np.array([2, 0], dtype=np.uint8)).groups == ("c", "a")
        empty = ds.subset([])
        assert empty.n == 0 and empty.groups == ()

    @pytest.mark.parametrize("bad,msg", [(np.nan, "must be finite"), (-1.0, "must be non-negative"),
                                         (np.inf, "must be finite"), (-np.inf, "must be finite")])
    def test_intensities_checked(self, bad, msg):
        with pytest.raises(ValueError, match=msg):
            LabeledDataset(
                mz=np.array([1.0, 2.0]),
                intensities=np.array([[1.0, bad]]),
                labels=np.array([0]),
                groups=("a",),
            )

    def test_label_values_checked(self):
        with pytest.raises(ValueError, match="0 or 1"):
            LabeledDataset(
                mz=np.array([1.0]),
                intensities=np.array([[1.0]]),
                labels=np.array([2]),
                groups=("a",),
            )
        # fractional labels are rejected, not truncated to 0, 1, 0
        for labels in ([0.5, 1.9, -0.7], np.array([0.0, 1.0, 0.5])):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                LabeledDataset(np.array([1.0]), np.ones((3, 1)), labels, ("a", "b", "c"))

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

    @pytest.mark.parametrize("text,named", [("0.0,2\n-0.0,1\n", "-0.0"),
                                            ("0.0,1\n-0.0,2\n", "-0.0"),
                                            ("-0.0,1\n0.0,2\n", "0.0")])
    def test_signed_zero_duplicate_names_the_later_row(self, tmp_path, text, named):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"duplicate mz value {re.escape(named)}$"):
            load_spectrum_csv(path)

    def test_memory_peak_is_a_few_times_the_arrays(self, tmp_path):
        # rows are parsed into one typed array, then ordered by one argsort:
        # no Python float or tuple per row outlives its row
        rng = np.random.default_rng(51)
        n = 200_000
        mz, intensity = np.arange(n) * 0.25 + 100.0, rng.random(n)
        order = rng.permutation(n)
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{m!r},{v!r}\n" for m, v in
                                zip(mz[order].tolist(), intensity[order].tolist())))
        tracemalloc.start()
        try:
            s = load_spectrum_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.mz.tobytes() == mz.tobytes()
        assert s.intensity.tobytes() == intensity.tobytes()
        assert peak <= 4 * (s.mz.nbytes + s.intensity.nbytes)

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

    def test_count_mismatch_names_both_files(self, tmp_path):
        sp, lp = self._write(tmp_path, "1.0\n1\n2\n3\n", "0,a\n1,b\n")
        with pytest.raises(ValueError) as err:
            load_dataset_csv(sp, lp)
        assert str(err.value) == (
            f"{lp}: label count 2 does not match spectrum count 3 of {sp}")

    @pytest.mark.parametrize("text,line", [("200,100\n1,2\n", 1), ("100,100\n1,2\n", 1),
                                           ("\n100,300,200\n1,2,3\n", 2)])
    def test_unordered_header_names_file_and_line(self, tmp_path, text, line):
        sp, lp = self._write(tmp_path, text, "0,a\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{sp}: line {line}: mz values must be strictly increasing")):
            load_dataset_csv(sp, lp)


# One rule set for every CSV the loaders read. Each case is (file, text,
# error line or None). A None case must load the file's canonical content:
# spectrum 1,10 / 2,20; spectra header 100,200 and rows 1,2 / 3,4; labels
# 0,a / 1,b. The other two files of a dataset hold their canonical content.
_CSV_CASES = {
    "whitespace-only line": [
        ("spectrum", "1,10\n  \t\n2,20\n", None),
        ("spectra", "100,200\n1,2\n   \n3,4\n", None),
        ("labels", "0,a\n \n1,b\n", None),
    ],
    "blank first line": [
        ("spectrum", "\n1,10\n2,20\n", None),
        ("spectra", "\n100,200\n1,2\n3,4\n", None),
        ("labels", "  \n0,a\n1,b\n", None),
    ],
    "quoted fields": [
        ("spectrum", '"1","10"\n2,"20"\n', None),
        ("spectra", '"100","200"\n"1",2\n3,"4"\n', None),
        ("labels", '"0","a"\n1,"b"\n', None),
    ],
    "line of commas": [
        ("spectrum", "1,10\n,\n", 2),
        ("spectra", "100,200\n1,2\n,\n", 3),
        ("labels", "0,a\n,\n", 2),
    ],
    "non-numeric": [
        ("spectrum", "1,10\n2,x\n", 2),
        ("spectra", "100,x\n1,2\n3,4\n", 1),
        ("spectra", "100,200\n1,x\n3,4\n", 2),
    ],
    "wrong width": [
        ("spectrum", "1,10\n2,20,30\n", 2),
        ("spectra", "100,200\n1,2\n3\n", 3),
        ("labels", "0,a\n1\n", 2),
    ],
    "non-finite": [
        ("spectrum", "1,10\n2,nan\n", 2),
        ("spectrum", "inf,10\n2,20\n", 1),
        ("spectra", "100,nan\n1,2\n3,4\n", 1),
        ("spectra", "100,200\n1,inf\n3,4\n", 2),
    ],
    "negative": [
        ("spectrum", "1,10\n2,-20\n", 2),
        ("spectra", "100,200\n1,2\n3,-4\n", 3),
    ],
    "CRLF endings": [
        ("spectrum", "1,10\r\n2,20\r\n", None),
        ("spectra", "100,200\r\n1,2\r\n3,4\r\n", None),
        ("labels", "0,a\r\n1,b\r\n", None),
    ],
    "byte-order mark": [
        ("spectrum", "\ufeff1,10\n2,20\n", 1),
        ("spectra", "\ufeff100,200\n1,2\n3,4\n", 1),
        ("labels", "\ufeff0,a\n1,b\n", 1),
    ],
    "bad value after blank lines": [
        ("spectrum", "1,10\n\n  \n2,x\n", 4),
        ("spectra", "100,200\n\n1,2\n  \n3,x\n", 5),
        ("labels", "0,a\n\n \n7,b\n", 4),
    ],
}


@pytest.mark.parametrize(
    "which,text,line",
    [case for cases in _CSV_CASES.values() for case in cases],
    ids=[f"{name}-{case[0]}-{i}" for name, cases in _CSV_CASES.items()
         for i, case in enumerate(cases)],
)
def test_csv_files_share_one_rule_set(tmp_path, which, text, line):
    files = {"spectrum": "1,10\n2,20\n", "spectra": "100,200\n1,2\n3,4\n",
             "labels": "0,a\n1,b\n", which: text}
    for name, content in files.items():
        (tmp_path / f"{name}.csv").write_text(content)
    path = tmp_path / f"{which}.csv"

    def load():
        if which == "spectrum":
            return load_spectrum_csv(path)
        return load_dataset_csv(tmp_path / "spectra.csv", tmp_path / "labels.csv")

    if line is not None:
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ")):
            load()
    elif which == "spectrum":
        s = load()
        np.testing.assert_array_equal(s.mz, [1.0, 2.0])
        np.testing.assert_array_equal(s.intensity, [10.0, 20.0])
    else:
        ds = load()
        np.testing.assert_array_equal(ds.mz, [100.0, 200.0])
        np.testing.assert_array_equal(ds.intensities, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])
        assert ds.groups == ("a", "b")


def test_csv_round_trip_keeps_every_bit(tmp_path):
    rng = np.random.default_rng(16)
    n, q = 40, 25
    # values over the whole float64 range, subnormals and negative m/z included
    mz = np.cumsum(rng.random(q) * 10.0 ** rng.integers(-3, 3, q)) - 50.0
    spectra = rng.random((n, q)) * 10.0 ** rng.integers(-320, 300, (n, q))
    spectra[0, 0] = 0.0
    s = Spectrum(mz, spectra[1])
    write_spectrum_csv(s, tmp_path / "s.csv")
    back = load_spectrum_csv(tmp_path / "s.csv")
    assert back.mz.tobytes() == s.mz.tobytes()
    assert back.intensity.tobytes() == s.intensity.tobytes()

    labels = rng.integers(0, 2, n)
    groups = [f"p{i % 5}" for i in range(n)]
    _write_csv(tmp_path / "spectra.csv", spectra.tolist(), header=mz.tolist())
    _write_csv(tmp_path / "labels.csv", zip(labels.tolist(), groups))
    ds = load_dataset_csv(tmp_path / "spectra.csv", tmp_path / "labels.csv")
    assert ds.mz.tobytes() == mz.tobytes()
    assert ds.intensities.tobytes() == spectra.tobytes()
    assert ds.labels.tobytes() == labels.astype(np.int64).tobytes()
    assert ds.groups == tuple(groups)


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

    def test_range_past_float_max_over_255(self, tmp_path):
        # 255 * (max - min) overflows; the pixels still scale, with no warning
        path = tmp_path / "img.pgm"
        write_pgm(np.array([[0.0, 2.0**1020, 2.0**1019]]), path)
        np.testing.assert_array_equal(read_pgm(path), [[0, 255, 128]])

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

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="grid values must be finite"):
            write_pgm(np.array([[np.inf, 2.0]]), tmp_path / "img.pgm")
        assert not (tmp_path / "img.pgm").exists()

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_rejects_empty_grid(self, tmp_path, shape):
        with pytest.raises(ValueError):
            write_pgm(np.zeros(shape), tmp_path / "img.pgm")
        assert not (tmp_path / "img.pgm").exists()


_GLIBC_PROC = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not Path("/proc/self/statm").exists(),
    reason="checks glibc's mmap threshold through /proc")


_SIMULATE = """
import sys
import topopeaks.cli


def simulate():
    rc = topopeaks.cli.main(["simulate", "--out-dir", sys.argv[1], "--size", "8",
                             "--n-mz", "400", "--n-peaks", "6"])
    assert rc == 0
"""

_RESIDENT = _SIMULATE + """
import json, os
from pathlib import Path
import numpy as np


def rss_bytes():
    return int(Path("/proc/self/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")


simulate()
n = int(sys.argv[2])
for _ in range(2):
    a = np.ones(n)
    del a
before = rss_bytes()
a = np.ones(n)
grown = rss_bytes() - before
del a
json.dump([grown, rss_bytes() - before], sys.stdout)
"""


@_GLIBC_PROC
def test_freed_image_sized_array_leaves_resident_memory(tmp_path):
    # 24 MB of float64, the size of a 30x30 simulator image. Without a fixed
    # mmap threshold, glibc serves it from the heap once an equal block has
    # been freed, and the freed heap block stays resident. The command sets
    # the threshold when it starts, so the check runs after one command.
    n = 3_000_000
    grown, left = run_fresh(_RESIDENT, str(tmp_path), str(n))
    assert grown > n * 8 * 3 // 4
    assert left < n * 8 // 4


_FAULTING_ROUNDS = _SIMULATE + """
import json, resource
import numpy as np


def faulting_rounds():
    # 8 MiB of float64, so its heap block is just over the 8 MiB trim
    # threshold the command sets: with that setting, every free gives the
    # heap top back and the next round faults it in again
    n = 0
    for _ in range(50):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        a = np.ones(1 << 20)
        del a
        n += resource.getrusage(resource.RUSAGE_SELF).ru_minflt > before
    return n


after_import = faulting_rounds()
simulate()
json.dump([after_import, faulting_rounds()], sys.stdout)
"""


@_GLIBC_PROC
def test_import_leaves_the_allocator_alone(tmp_path):
    # After the import, glibc's own thresholds rise to the first freed 8 MiB
    # block, so only the first rounds fault; once the command has set its
    # thresholds, every round does.
    after_import, after_main = run_fresh(_FAULTING_ROUNDS, str(tmp_path))
    assert after_import <= 5, after_import
    assert after_main >= 45, after_main


_DENOISE_FAULTS = """
import json, resource, sys
import topopeaks.cli

before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = topopeaks.cli.main(["denoise", "--out-dir", sys.argv[1], "--size", "30"])
json.dump([rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before], sys.stdout)
"""


@_GLIBC_PROC
def test_streaming_denoise_keeps_its_heap_resident(tmp_path):
    # denoise frees and remakes the pairing kernel's arrays for every 8-row
    # block. Under glibc's own thresholds each free gives the heap top back
    # to the OS and the next block faults it in again: 13,000-32,000 minor
    # faults at this size, against about 1,000 with the command's 8 MiB trim
    # threshold.
    rc, faults = run_fresh(_DENOISE_FAULTS, str(tmp_path))
    assert rc == 0 and faults <= 5_000, faults
