"""Command-line interface: flags, files, exit codes, stream discipline."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from conftest import two_class_dataset

from topopeaks.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def write_spectrum(path, rows="1,0\n2,2\n3,1\n4,3\n5,0\n"):
    path.write_text(rows)
    return str(path)


def write_dataset(ds, tmp_path):
    spectra = tmp_path / "spectra.csv"
    labels = tmp_path / "labels.csv"
    with open(spectra, "w") as fh:
        fh.write(",".join(repr(v) for v in ds.mz.tolist()) + "\n")
        for row in ds.intensities:
            fh.write(",".join(repr(v) for v in row.tolist()) + "\n")
    with open(labels, "w") as fh:
        for lab, grp in zip(ds.labels.tolist(), ds.groups):
            fh.write(f"{lab},{grp}\n")
    return str(spectra), str(labels)


class TestArgumentHandling:
    def test_no_arguments_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--in", "x", "--out", "y", "--frobnicate"])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["annihilate"])
        assert exc.value.code == 1

    def test_help_exits_0_and_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("transform", "classify", "simulate", "denoise", "bench"):
            assert name in out

    def test_readme_examples_parse(self):
        examples = []
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S):
            for line in block.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv and argv[0] == "topopeaks":
                    examples.append(argv[1:])
        assert {argv[0] for argv in examples} == {
            "transform", "classify", "simulate", "denoise", "bench"}
        parser = _build_parser()
        for argv in examples:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: topopeaks {shlex.join(argv)}")

    def test_subcommand_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--in", "--out", "--k", "--reduced", "--diagram"):
            assert flag in out


class TestTransformCommand:
    def test_writes_all_features_at_k_100(self, tmp_path, capsys):
        out = tmp_path / "features.csv"
        rc = main(["transform", "--in", write_spectrum(tmp_path / "s.csv"),
                   "--out", str(out), "--k", "100"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "position_index,mz,birth,death,persistence"
        assert len(lines) == 3  # two local maxima
        captured = capsys.readouterr()
        assert captured.out == ""  # progress goes to stderr only
        assert "wrote" in captured.err

    def test_k_filters_rows(self, tmp_path):
        out = tmp_path / "features.csv"
        rc = main(["transform", "--in", write_spectrum(tmp_path / "s.csv"),
                   "--out", str(out), "--k", "30"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # ceil(0.3 * 2) = 1 feature
        assert lines[1].startswith("3,4.0,3.0,0.0,3.0")

    @pytest.mark.parametrize("rows, expected", [
        # the taller peak is written first, though it lies to the right
        ("1,0\n2,2\n3,1\n4,3\n5,0\n", ["3,4.0,3.0,0.0,3.0", "1,2.0,2.0,1.0,1.0"]),
        # equal births: the smaller position first
        ("1,0\n2,2\n3,1\n4,2\n5,0\n", ["1,2.0,2.0,0.0,2.0", "3,4.0,2.0,1.0,1.0"]),
    ])
    def test_triples_sorted_by_descending_birth(self, tmp_path, rows, expected):
        out = tmp_path / "features.csv"
        rc = main(["transform", "--in", write_spectrum(tmp_path / "s.csv", rows),
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1:] == expected

    def test_reduced_output(self, tmp_path):
        out = tmp_path / "reduced.csv"
        rc = main(["transform", "--in", write_spectrum(tmp_path / "s.csv"),
                   "--out", str(out), "--reduced"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "position_index,mz,persistence"
        assert all(line.count(",") == 2 for line in lines)
        assert lines[1:] == ["1,2.0,1.0", "3,4.0,3.0"]  # axis order, unlike the triples

    def test_diagram_file(self, tmp_path):
        out = tmp_path / "features.csv"
        dia = tmp_path / "diagram.csv"
        rc = main(["transform", "--in", write_spectrum(tmp_path / "s.csv"),
                   "--out", str(out), "--diagram", str(dia)])
        assert rc == 0
        assert sorted(dia.read_text().splitlines()) == ["2.0,1.0", "3.0,0.0"]

    def test_bad_k_exits_1_naming_the_bound(self, tmp_path, capsys):
        rc = main(["transform", "--in", write_spectrum(tmp_path / "s.csv"),
                   "--out", str(tmp_path / "o.csv"), "--k", "0"])
        assert rc == 1
        assert "k must be in (0, 100]" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        rc = main(["transform", "--in", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_unwritable_output_exits_2(self, tmp_path):
        rc = main(["transform", "--in", write_spectrum(tmp_path / "s.csv"),
                   "--out", str(tmp_path / "no-such-dir" / "o.csv")])
        assert rc == 2

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        rc = main(["transform", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err


class TestClassifyCommand:
    def test_leave_one_group_out_files(self, tmp_path, capsys):
        ds = two_class_dataset(n=32, q=30, seed=30, n_groups=4)
        spectra, labels = write_dataset(ds, tmp_path)
        out_dir = tmp_path / "cv"
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(out_dir), "--k", "50"])
        assert rc == 0
        folds = (out_dir / "folds.csv").read_text().splitlines()
        assert folds[0] == "fold,balanced_accuracy"
        assert len(folds) == 5  # one row per group
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "statistic,value"
        assert [line.split(",")[0] for line in summary[1:]] == [
            "mean", "min", "max", "median", "std"]
        out = capsys.readouterr().out
        assert "balanced accuracy" in out and "mean" in out

    def test_two_fold_ab(self, tmp_path):
        ds = two_class_dataset(n=24, q=25, seed=31, n_groups=4)
        spectra, labels = write_dataset(ds, tmp_path)
        out_dir = tmp_path / "cv"
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(out_dir), "--scheme", "two-fold-AB",
                   "--k", "50"])
        assert rc == 0
        folds = (out_dir / "folds.csv").read_text().splitlines()
        assert len(folds) == 3
        assert folds[1].startswith("train-A-test-B,")

    def test_forest_classifier_path(self, tmp_path):
        ds = two_class_dataset(n=16, q=20, seed=32, n_groups=2)
        spectra, labels = write_dataset(ds, tmp_path)
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(tmp_path / "cv"), "--classifier", "forest",
                   "--n-trees", "5", "--k", "50"])
        assert rc == 0

    def test_single_group_exits_1(self, tmp_path, capsys):
        ds = two_class_dataset(n=10, q=20, seed=33, n_groups=1)
        spectra, labels = write_dataset(ds, tmp_path)
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(tmp_path / "cv")])
        assert rc == 1
        assert "at least 2 groups" in capsys.readouterr().err

    def test_bad_labels_file_exits_1(self, tmp_path, capsys):
        ds = two_class_dataset(n=8, q=20, seed=34, n_groups=2)
        spectra, labels = write_dataset(ds, tmp_path)
        with open(labels, "a") as fh:
            fh.write("1,extra\n")
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(tmp_path / "cv")])
        assert rc == 1
        assert "label count" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_pgms(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        rc = main(["simulate", "--out-dir", str(out_dir), "--size", "8",
                   "--n-mz", "400", "--n-peaks", "4"])
        assert rc == 0
        for name in ("ground_truth.pgm", "noisy.pgm"):
            raw = (out_dir / name).read_bytes()
            assert raw.startswith(b"P5\n8 8\n255\n")
        assert capsys.readouterr().out == ""

    def test_default_axis_has_3466_values(self, tmp_path, capsys):
        rc = main(["simulate", "--out-dir", str(tmp_path / "sim"), "--size", "8"])
        assert rc == 0
        assert "3466 mz values" in capsys.readouterr().err

    def test_zero_sd_noisy_equals_ground_truth(self, tmp_path):
        out_dir = tmp_path / "sim"
        rc = main(["simulate", "--out-dir", str(out_dir), "--size", "8",
                   "--n-mz", "400", "--n-peaks", "4",
                   "--noise", "gaussian", "--sd", "0"])
        assert rc == 0
        assert (out_dir / "noisy.pgm").read_bytes() == \
            (out_dir / "ground_truth.pgm").read_bytes()

    def test_too_small_size_exits_1(self, tmp_path):
        rc = main(["simulate", "--out-dir", str(tmp_path / "sim"), "--size", "4"])
        assert rc == 1


class TestDenoiseCommand:
    def test_writes_one_pgm_per_k(self, tmp_path):
        out_dir = tmp_path / "den"
        rc = main(["denoise", "--out-dir", str(out_dir), "--size", "8",
                   "--n-mz", "400", "--n-peaks", "4", "--noise", "none",
                   "--k", "50,100"])
        assert rc == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["denoised_k100.pgm", "denoised_k50.pgm",
                         "ground_truth.pgm", "noisy.pgm"]

    def test_bad_k_list_exits_1(self, tmp_path, capsys):
        rc = main(["denoise", "--out-dir", str(tmp_path / "den"), "--size", "8",
                   "--n-mz", "400", "--n-peaks", "4", "--k", "ten"])
        assert rc == 1
        assert "bad k list" in capsys.readouterr().err

    def test_empty_k_list_exits_1(self, tmp_path):
        rc = main(["denoise", "--out-dir", str(tmp_path / "den"), "--size", "8",
                   "--n-mz", "400", "--n-peaks", "4", "--k", ","])
        assert rc == 1

    @pytest.mark.parametrize("ks", ["10,0", "0"])
    def test_out_of_range_k_exits_1_before_writing(self, tmp_path, capsys, ks):
        out_dir = tmp_path / "den"
        rc = main(["denoise", "--out-dir", str(out_dir), "--size", "8",
                   "--n-mz", "400", "--n-peaks", "4", "--k", ks])
        assert rc == 1
        assert "k must be in" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.pgm")) == []


class TestBenchCommand:
    def test_timing_csv(self, tmp_path):
        out = tmp_path / "timing.csv"
        rc = main(["bench", "--out", str(out), "--sizes", "8,10",
                   "--n-mz", "400", "--n-peaks", "4"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "size,pixels,seconds,seconds_per_pixel,ratio_vs_first"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "8" and first[1] == "64"
        assert float(first[4]) == 1.0

    def test_bad_sizes_exit_1(self, tmp_path):
        rc = main(["bench", "--out", str(tmp_path / "t.csv"), "--sizes", "big"])
        assert rc == 1

    def test_size_flag_rejected(self, tmp_path):
        # bench takes its sizes from --sizes; --size belongs to simulate/denoise
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--out", str(tmp_path / "t.csv"), "--sizes", "8", "--size", "3"])
        assert exc.value.code == 1
        assert not (tmp_path / "t.csv").exists()


def test_every_subcommand_is_deterministic(tmp_path):
    # same flags, two runs, identical bytes
    args = ["simulate", "--out-dir", None, "--size", "8", "--n-mz", "400",
            "--n-peaks", "4", "--seed", "7"]
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        args[2] = str(out_dir)
        assert main(args) == 0
        outputs.append((out_dir / "noisy.pgm").read_bytes())
    assert outputs[0] == outputs[1]
