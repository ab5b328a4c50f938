"""Outputs at one and at two BLAS threads, compared in fresh interpreters.

OpenBLAS reads its thread count once, at import, so each count runs the same
script in a subprocess of its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import two_class_dataset

import topopeaks

# Writes the classify CSVs (logistic and forest), the denoise PGMs and the
# feature matrix under argv[1], and the wide logistic fit as fit.json.
SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
from topopeaks import build_matrix, fit_logistic, load_dataset_csv, predict_logistic
from topopeaks.cli import main

out, spectra, labels = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
for c in ("logistic", "forest"):
    assert main(["classify", "--spectra", spectra, "--labels", labels, "--classifier", c,
                 "--n-trees", "50", "--out-dir", str(out / c)]) == 0
assert main(["denoise", "--size", "16", "--k", "10,25,100", "--out-dir", str(out / "den")]) == 0
(out / "matrix.bin").write_bytes(build_matrix(load_dataset_csv(spectra, labels), 25).tobytes())
rng = np.random.default_rng(11)
Z = rng.normal(size=(300, 800))
y = (Z[:, :20].sum(axis=1) + rng.normal(size=300) > 0).astype(int)
model = fit_logistic(Z[:200], y[:200])
(out / "fit.json").write_text(json.dumps({
    "status": model.status, "n_iter": model.n_iter,
    "classes": predict_logistic(model, Z)[1].tolist(), "beta": model.beta.tobytes().hex()}))
"""


def _run(threads: str, out: Path, files: tuple[str, str]) -> tuple[dict, dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=str(Path(topopeaks.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", SCRIPT, str(out), *files], env=env,
                   capture_output=True, check=True, timeout=300)
    written = {str(p.relative_to(out)): p.read_bytes()
               for p in sorted(out.rglob("*")) if p.is_file()}
    return written, json.loads(written.pop("fit.json"))


def test_outputs_identical_at_one_and_two_blas_threads(tmp_path):
    ds = two_class_dataset(n=120, q=500, seed=3)
    spectra, labels = tmp_path / "spectra.csv", tmp_path / "labels.csv"
    spectra.write_text("\n".join(",".join(map(repr, row.tolist()))
                                 for row in (ds.mz, *ds.intensities)) + "\n")
    labels.write_text("".join(f"{y},{g}\n" for y, g in zip(ds.labels.tolist(), ds.groups)))
    files = (str(spectra), str(labels))
    one, fit_one = _run("1", tmp_path / "t1", files)
    two, fit_two = _run("2", tmp_path / "t2", files)
    assert len(one) == 10  # 4 classify CSVs, 5 PGMs and the matrix
    assert one.keys() == two.keys()
    assert [name for name in one if one[name] != two[name]] == []
    # the wide fit's coefficients may differ in their last bits: threaded
    # BLAS splits the SVD's reductions differently, so their rounding differs
    del fit_one["beta"], fit_two["beta"]
    assert fit_one == fit_two
