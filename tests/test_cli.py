"""Command-line interface: flags, files, exit codes, stream discipline."""

from __future__ import annotations

import argparse
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_pair_block, run_fresh, two_class_dataset

from topopeaks import (
    LabeledDataset,
    NoiseModel,
    SimulationSpec,
    Spectrum,
    add_noise,
    denoise,
    filter_top_k,
    generate_ground_truth,
    mean_image,
    reduce,
    to_diagram,
    transform,
    write_diagram_csv,
    write_pairs_csv,
    write_pgm,
    write_spectrum_csv,
    write_triples_csv,
)
from topopeaks import cli, persistence
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

    def test_readme_python_blocks_run(self, tmp_path, monkeypatch):
        # the library sketch reads spectra.csv and labels.csv from the working directory
        write_dataset(two_class_dataset(n=24, q=30, seed=12), tmp_path)
        monkeypatch.chdir(tmp_path)
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
        assert len(blocks) >= 2
        namespaces = []
        for block in blocks:
            namespaces.append({})
            exec(compile(block, "README.md", "exec"), namespaces[-1])
        first = namespaces[0]
        assert first["triples"] == [(3, 3.0, 0.0), (1, 2.0, 1.0)]
        assert first["pairs"] == [(3, 3.0), (1, 1.0)]
        assert first["bottleneck_distance"](first["d"], first["d"]) == 0.0

    def test_subcommand_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--in", "--out", "--k", "--reduced", "--diagram"):
            assert flag in out
        # every option of every subcommand says what it does
        (commands,) = [a.choices for a in _build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert set(commands) == {"transform", "classify", "simulate", "denoise", "bench"}
        undocumented = [(name, a.option_strings[0]) for name, sub in commands.items()
                        for a in sub._actions if a.option_strings and not a.help]
        assert undocumented == []


class TestRuntimeDependencies:
    def test_numpy_is_the_only_dependency(self):
        # a fresh interpreter loads nothing outside the standard library but
        # numpy and the package itself, and no process machinery at all
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import topopeaks, topopeaks.cli\n"
            "json.dump(sorted(set(sys.modules) - before), sys.stdout)\n"
        )
        loaded = {name.split(".")[0] for name in run_fresh(script)}
        foreign = loaded - sys.stdlib_module_names - {"numpy", "topopeaks"}
        assert "topopeaks" in loaded and "numpy" in loaded
        assert not foreign, sorted(foreign)
        assert not loaded & {"multiprocessing", "concurrent"}, sorted(loaded)


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

    SPECTRA = {
        "squared-gaussian": lambda rng, q: rng.normal(size=q) ** 2,
        "integers": lambda rng, q: rng.integers(0, 3, q).astype(float),
        "poisson": lambda rng, q: rng.poisson(2.0, q).astype(float),
        "random-walk": lambda rng, q: np.cumsum(rng.integers(-1, 2, q)).astype(float),
    }

    @pytest.mark.parametrize("kind", list(SPECTRA))
    def test_outputs_equal_the_list_composition(self, tmp_path, kind):
        # the command keeps the kernel's cut-value selection; the public
        # filter_top_k over reduce is the reference it must equal, byte for byte
        rng = np.random.default_rng(list(self.SPECTRA).index(kind))
        files = {name: tmp_path / f"{name}.csv" for name in
                 ("in", "triples", "reduced", "diagram", "want_triples", "want_reduced",
                  "want_diagram")}
        for _ in range(50):
            q = int(rng.integers(2, 80))
            values = self.SPECTRA[kind](rng, q)
            spectrum = Spectrum(np.arange(100.0, 100.0 + q), values - values.min())
            write_spectrum_csv(spectrum, files["in"])
            triples = transform(spectrum)
            write_diagram_csv(to_diagram(triples), files["want_diagram"])
            for k in ("0.001", "1", "33", "33.4", "50", "99.9", "100"):
                argv = ["transform", "--in", str(files["in"]), "--k", k]
                assert main([*argv, "--out", str(files["triples"]),
                             "--diagram", str(files["diagram"])]) == 0
                assert main([*argv, "--out", str(files["reduced"]), "--reduced"]) == 0
                pairs = filter_top_k(reduce(triples), float(k))
                write_pairs_csv(pairs, spectrum.mz, files["want_reduced"])
                kept = {p.position for p in pairs}
                write_triples_csv([t for t in triples if t.position in kept], spectrum.mz,
                                  files["want_triples"])
                for name in ("triples", "reduced", "diagram"):
                    got, want = files[name].read_bytes(), files[f"want_{name}"].read_bytes()
                    assert got == want, (name, k, values.tolist())

    def test_diagram_keeps_the_sign_of_zero_deaths(self, tmp_path):
        # 0 and -0 between peaks: the row searches to the end, so every death
        # keeps the sign bit that the full elder search reads
        spectrum = write_spectrum(tmp_path / "s.csv", "1,0\n2,3\n3,-0\n4,1\n5,0\n"
                                  "6,4\n7,-0\n8,0\n9,2\n10,-0\n")
        dia = tmp_path / "diagram.csv"
        assert main(["transform", "--in", spectrum, "--out", str(tmp_path / "o.csv"),
                     "--diagram", str(dia)]) == 0
        assert [line.split(",")[1] for line in dia.read_text().splitlines()] == [
            "-0.0", "0.0", "0.0", "0.0"]

    @staticmethod
    def _transform_10000_peaks(tmp_path, values, *flags):
        """Write ``values`` as a spectrum on the axis 0, 1, ...; run transform --k 25 on it."""
        spectrum = write_spectrum(tmp_path / "s.csv",
                                  "".join(f"{j},{x}\n" for j, x in enumerate(values)))
        out = tmp_path / "out.csv"
        assert main(["transform", "--in", spectrum, "--out", str(out), "--k", "25",
                     *flags]) == 0
        return out.read_text().splitlines()

    def test_descending_staircase_of_10000_peaks(self, tmp_path):
        # peaks in falling height order on rising saddles, the global maximum
        # last: the divide-and-conquer route's quadratic case
        m = 10_000
        v = [0.0] * (2 * m + 1)
        for i in range(m):
            v[2 * i + 1], v[2 * i + 2] = 2 * m - i, i + 1e-3
        v[2 * m] = 4 * m
        dia = tmp_path / "diagram.csv"
        top = self._transform_10000_peaks(tmp_path, v, "--diagram", str(dia))
        assert len(dia.read_text().splitlines()) == m
        assert len(top) == 1 + m // 4
        # --reduced keeps the same peaks, in axis order rather than by birth
        pairs = self._transform_10000_peaks(tmp_path, v, "--reduced")
        assert len(pairs) == 1 + m // 4
        assert [int(line.split(",")[0]) for line in pairs[1:]] == sorted(
            int(line.split(",")[0]) for line in top[1:])

    def test_v_of_10000_peaks_climbs(self, tmp_path, monkeypatch):
        # a V of peaks on valleys at 0.5, above the row minimum at position 0:
        # on its far arm the jumping moves one peak per round, so the searches
        # still open at the cap finish by binary lifting over their links
        climbs = []
        climb = persistence._climb
        monkeypatch.setattr(persistence, "_climb",
                            lambda *a: climbs.append(a[3].size) or climb(*a))
        m = 10_000
        v = [0.0] + [0.5] * (2 * m)
        for i in range(m):
            v[2 * i + 1] = abs(i - m / 2) + 1.0
        dia = tmp_path / "diagram.csv"
        top = self._transform_10000_peaks(tmp_path, v, "--diagram", str(dia))
        deaths = [line.split(",")[1] for line in dia.read_text().splitlines()]
        assert len(deaths) == m
        assert len(top) == 1 + m // 4
        # the tallest peak, at the left end, has no elder and dies at the
        # row minimum; every other one at a valley
        assert sorted(deaths) == ["0.0"] + ["0.5"] * (m - 1)
        assert len(climbs) == 1 and climbs[0] > 0

    def test_pairs_the_spectrum_once(self, tmp_path, monkeypatch):
        # the triples, the diagram and the top-k% peaks share one pairing
        calls = []
        pair = persistence._pair_block

        def spy(rows):
            calls.append(rows.shape)
            return pair(rows)

        monkeypatch.setattr(persistence, "_pair_block", spy)
        spectrum = write_spectrum(tmp_path / "s.csv")
        for flags in (["--diagram", str(tmp_path / "d.csv")], ["--reduced"], []):
            calls.clear()
            assert main(["transform", "--in", spectrum, "--out", str(tmp_path / "o.csv"),
                         "--k", "50", *flags]) == 0
            assert calls == [(1, 5)], flags

    @pytest.mark.parametrize("rows", ["7,2.5\n", "1,3\n2,3\n3,3\n"])
    def test_spectrum_without_peaks_writes_only_the_header(self, tmp_path, rows):
        spectrum = write_spectrum(tmp_path / "s.csv", rows)
        for flags, header in ([], "position_index,mz,birth,death,persistence"), \
                             (["--reduced"], "position_index,mz,persistence"):
            out = tmp_path / "out.csv"
            assert main(["transform", "--in", spectrum, "--out", str(out), *flags]) == 0
            assert out.read_text() == header + "\n"

    def test_bad_k_exits_1_naming_the_bound(self, tmp_path, capsys, monkeypatch):
        spectrum = write_spectrum(tmp_path / "s.csv")
        loads = []
        monkeypatch.setattr(cli, "load_spectrum_csv", loads.append)
        rc = main(["transform", "--in", spectrum, "--out", str(tmp_path / "o.csv"), "--k", "0"])
        assert rc == 1
        assert "k must be in (0, 100]" in capsys.readouterr().err
        assert loads == []  # rejected before the spectrum is read

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

    def test_quoted_files_name_the_folds(self, tmp_path):
        # quoted header, labels and groups; 8 spectra in 2 groups
        spectra = write_spectrum(tmp_path / "spectra.csv",
                                 '"100","200","300","400","500"\n0,1,0,3,0\n0,4,0,1,0\n'
                                 "0,1,0,3,0\n0,5,0,1,0\n0,2,0,3,0\n0,4,0,2,0\n"
                                 "0,1,0,4,0\n0,5,0,1,0\n")
        labels = write_spectrum(tmp_path / "labels.csv",
                                '"0","a"\n"1","a"\n"0","a"\n"1","a"\n'
                                '"0","b"\n"1","b"\n"0","b"\n"1","b"\n')
        out_dir = tmp_path / "cv"
        assert main(["classify", "--spectra", spectra, "--labels", labels,
                     "--out-dir", str(out_dir)]) == 0
        folds = (out_dir / "folds.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in folds[1:]] == ["a", "b"]

    def test_forest_classifier_path(self, tmp_path):
        ds = two_class_dataset(n=16, q=20, seed=32, n_groups=2)
        spectra, labels = write_dataset(ds, tmp_path)
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(tmp_path / "cv"), "--classifier", "forest",
                   "--n-trees", "5", "--k", "50"])
        assert rc == 0

    def test_logistic_on_huge_intensities_exits_1(self, tmp_path, capsys):
        ds = two_class_dataset(n=16, q=20, seed=35, n_groups=2)
        ds = LabeledDataset(ds.mz, ds.intensities * 1e200, ds.labels, ds.groups)
        spectra, labels = write_dataset(ds, tmp_path)
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(tmp_path / "cv"), "--k", "50"])
        assert rc == 1
        assert "logistic features must lie within ±1e+100" in capsys.readouterr().err

    def test_single_group_exits_1(self, tmp_path, capsys):
        ds = two_class_dataset(n=10, q=20, seed=33, n_groups=1)
        spectra, labels = write_dataset(ds, tmp_path)
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(tmp_path / "cv")])
        assert rc == 1
        assert "at least 2 groups" in capsys.readouterr().err

    def test_unmakeable_out_dir_exits_2_before_cross_validating(self, tmp_path, monkeypatch):
        ds = two_class_dataset(n=8, q=20, seed=34, n_groups=2)
        spectra, labels = write_dataset(ds, tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        calls = []
        monkeypatch.setattr(cli, "group_cv", lambda *a, **kw: calls.append(a))
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(taken)])
        assert rc == 2
        assert calls == []

    @pytest.mark.parametrize("flags,message", [
        (["--k", "0"], "k must be in (0, 100], got 0.0"),
        (["--classifier", "forest", "--n-trees", "0"], "n_trees must be positive"),
    ], ids=["k", "n-trees"])
    def test_bad_k_or_n_trees_exits_1_before_reading(self, tmp_path, capsys, monkeypatch,
                                                      flags, message):
        ds = two_class_dataset(n=8, q=20, seed=34, n_groups=2)
        spectra, labels = write_dataset(ds, tmp_path)
        loads = []
        monkeypatch.setattr(cli, "load_dataset_csv", lambda *a: loads.append(a))
        out_dir = tmp_path / "cv"
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(out_dir), *flags])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert loads == []
        assert not out_dir.exists()

    def test_negative_forest_seed_exits_1_before_reading(self, tmp_path, capsys, monkeypatch):
        ds = two_class_dataset(n=8, q=20, seed=34, n_groups=2)
        spectra, labels = write_dataset(ds, tmp_path)
        loads = []
        monkeypatch.setattr(cli, "load_dataset_csv", lambda *a: loads.append(a))
        out_dir = tmp_path / "cv"
        rc = main(["classify", "--spectra", spectra, "--labels", labels,
                   "--out-dir", str(out_dir), "--classifier", "forest", "--seed", "-1"])
        assert rc == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert loads == []
        assert not out_dir.exists()

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
        assert sorted(p.name for p in out_dir.iterdir()) == ["ground_truth.pgm", "noisy.pgm"]
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

    def test_nan_sd_exits_1_naming_the_noise_level(self, tmp_path, capsys):
        rc = main(["simulate", "--out-dir", str(tmp_path / "sim"), "--size", "8",
                   "--n-mz", "400", "--n-peaks", "4", "--sd", "nan"])
        assert rc == 1
        assert "noise level must be finite and non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "denoise"])
    def test_infinite_baseline_exits_1_before_writing(self, tmp_path, capsys, command):
        rc = main([command, "--out-dir", str(tmp_path / "sim"), "--size", "8",
                   "--n-mz", "400", "--n-peaks", "4", "--baseline", "inf"])
        assert rc == 1
        assert "baseline must be finite and non-negative" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("command", ["simulate", "denoise"])
    def test_negative_seed_exits_1_before_writing(self, tmp_path, capsys, command):
        rc = main([command, "--out-dir", str(tmp_path / "sim"), "--size", "8",
                   "--n-mz", "400", "--n-peaks", "4", "--seed", "-1"])
        assert rc == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("command", ["simulate", "denoise"])
    def test_unmakeable_out_dir_exits_2_before_simulating(self, tmp_path, monkeypatch, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        calls = []
        monkeypatch.setattr(cli, "simulate_means", lambda *a: calls.append(a))
        rc = main([command, "--out-dir", str(taken), "--size", "8", "--n-mz", "400",
                   "--n-peaks", "4"])
        assert rc == 2
        assert calls == []

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

    def test_pgm_bytes_match_library_denoise(self, tmp_path):
        # every k shares one pairing pass; each image must still be the
        # public denoise of the noisy image at that k alone
        out_dir = tmp_path / "den"
        rc = main(["denoise", "--out-dir", str(out_dir), "--size", "9",
                   "--n-mz", "400", "--n-peaks", "6", "--seed", "5",
                   "--noise", "gaussian", "--sd", "0.3", "--k", "25,5,100"])
        assert rc == 0
        image, _ = generate_ground_truth(SimulationSpec(size=9, n_mz=400, n_peaks=6, seed=5))
        noisy = add_noise(image, NoiseModel("gaussian", 0.3, 5))
        for k in (25, 5, 100):
            expect = tmp_path / f"expect_{k}.pgm"
            write_pgm(mean_image(denoise(noisy, k)), expect)
            assert (out_dir / f"denoised_k{k}.pgm").read_bytes() == expect.read_bytes()

    def test_one_denoise_call_and_the_bytes_of_the_lifting_kernel(self, tmp_path, monkeypatch):
        # every pixel is paired once for all k, and the images are those of
        # the binary-lifting pairing the jumping kernel replaced
        argv = ["denoise", "--size", "9", "--n-mz", "400", "--n-peaks", "6", "--seed", "5",
                "--noise", "gaussian", "--sd", "0.3", "--k", "25,5,100", "--out-dir"]
        paired = []
        real = persistence._pair_block
        monkeypatch.setattr(persistence, "_pair_block",
                            lambda rows: paired.append(len(rows)) or real(rows))
        assert main([*argv, str(tmp_path / "jump")]) == 0
        assert sum(paired) == 9 * 9
        monkeypatch.setattr(persistence, "_pair_block", reference_pair_block)
        assert main([*argv, str(tmp_path / "lift")]) == 0
        names = sorted(p.name for p in (tmp_path / "lift").iterdir())
        assert len(names) == 5
        for name in names:
            got = (tmp_path / "jump" / name).read_bytes()
            assert got == (tmp_path / "lift" / name).read_bytes(), name

    POISSON = ["--size", "8", "--n-mz", "400", "--n-peaks", "6", "--noise", "poisson",
               "--lam", "1"]

    def test_poisson_writes_one_pgm_per_k(self, tmp_path):
        # Poisson counts tie often, so the top-k% cut falls inside runs of
        # equal persistences
        out_dir = tmp_path / "den"
        assert main(["denoise", "--out-dir", str(out_dir), *self.POISSON,
                     "--k", "0.001,50,100"]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["denoised_k0.001.pgm", "denoised_k100.pgm", "denoised_k50.pgm",
                         "ground_truth.pgm", "noisy.pgm"]
        for name in names:
            assert (out_dir / name).read_bytes().startswith(b"P5\n"), name

    def test_order_of_k_keeps_the_tied_poisson_images(self, tmp_path):
        # each image is byte-identical to denoising at that k alone, also
        # where the Poisson counts make the cuts tie and one pairing serves
        # every k
        images = {}
        for ks in ("10,25", "25,10", "25"):
            out_dir = tmp_path / ks
            assert main(["denoise", "--out-dir", str(out_dir), *self.POISSON, "--k", ks]) == 0
            images[ks] = {p.name: p.read_bytes() for p in out_dir.glob("denoised_*")}
        assert images["10,25"] == images["25,10"]
        assert images["25"]["denoised_k25.pgm"] == images["10,25"]["denoised_k25.pgm"]

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
        assert not out_dir.exists()

    def test_default_k_after_an_explicit_k(self, tmp_path):
        # main reuses one parser; a flag given to one call must not become
        # the next call's default
        flags = ["--size", "8", "--n-mz", "400", "--n-peaks", "4", "--noise", "none"]
        assert main(["denoise", "--out-dir", str(tmp_path / "k50"), *flags, "--k", "50"]) == 0
        assert main(["denoise", "--out-dir", str(tmp_path / "default"), *flags]) == 0
        assert sorted(p.name for p in (tmp_path / "k50").iterdir()) == [
            "denoised_k50.pgm", "ground_truth.pgm", "noisy.pgm"]
        assert sorted(p.name for p in (tmp_path / "default").iterdir()) == [
            "denoised_k10.pgm", "denoised_k25.pgm", "ground_truth.pgm", "noisy.pgm"]


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


@pytest.mark.parametrize("value", ["30,abc", ","])
@pytest.mark.parametrize("command,out_flag,flag,name", [("bench", "--out", "--sizes", "size"),
                                                        ("denoise", "--out-dir", "--k", "k")])
def test_bad_list_flag_exits_1_naming_the_list(tmp_path, capsys, command, out_flag, flag, name,
                                               value):
    rc = main([command, out_flag, str(tmp_path / "out"), flag, value])
    assert rc == 1
    assert f"bad {name} list {value!r}: expected comma-separated" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
