"""Every data output, byte for byte, under each numpy dispatch level, BLAS kernel and thread count.

numpy picks its SIMD loops by the CPU at run time, and OpenBLAS its kernels
and thread count once, at import. So each setting runs ``_write_outputs`` in
an interpreter of its own, and every file it writes is compared with the
default child's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import test_persistence
from conftest import two_class_dataset
from test_cli import write_dataset
from test_simulate import _simulated_digest

import topopeaks
from topopeaks import (
    Spectrum,
    bottleneck_distance,
    build_matrix,
    fit_logistic,
    load_dataset_csv,
    predict_logistic,
    to_diagram,
    transform,
)
from topopeaks.cli import main


def _dispatched():
    """The SIMD features beyond its baseline that numpy dispatches here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def _write_outputs(out: str, spectrum: str, spectra: str, labels: str) -> None:
    """Write every data output under ``out``, and the SIMD features dispatched."""
    out = Path(out)
    runs = [
        ["transform", "--in", spectrum, "--out", out / "triples.csv",
         "--diagram", out / "diagram.csv"],
        ["transform", "--in", spectrum, "--out", out / "pairs.csv", "--reduced", "--k", "25"],
        *(["classify", "--spectra", spectra, "--labels", labels, "--classifier", c,
           "--scheme", s, "--n-trees", "20", "--out-dir", out / f"{c}_{s}"]
          for c in ("logistic", "forest") for s in ("leave-one-group-out", "two-fold-AB")),
        ["simulate", "--size", "16", "--out-dir", out / "simulate"],
        ["denoise", "--size", "16", "--k", "10,25,100", "--out-dir", out / "gaussian"],
        ["denoise", "--size", "16", "--noise", "poisson", "--lam", "1",
         "--k", "0.001,50,100", "--out-dir", out / "poisson"],
    ]
    for args in runs:
        assert main([str(a) for a in args]) == 0, args

    data = load_dataset_csv(spectra, labels)
    (out / "matrix.bin").write_bytes(build_matrix(data, 25).tobytes())
    rng = np.random.default_rng(11)
    Z = rng.normal(size=(300, 800))
    y = (Z[:, :20].sum(axis=1) + rng.normal(size=300) > 0).astype(int)
    model = fit_logistic(Z[:200], y[:200])
    (out / "beta.bin").write_bytes(model.beta.tobytes())
    (out / "fit.json").write_text(json.dumps({
        "status": model.status, "n_iter": model.n_iter,
        "classes": predict_logistic(model, Z)[1].tolist()}))
    a, b = (to_diagram(transform(Spectrum(data.mz, row))) for row in data.intensities[:2])
    (out / "bottleneck.txt").write_text(bottleneck_distance(a, b).hex())
    (out / "digests.json").write_text(json.dumps({
        "pair_block": test_persistence.TestPairBlock._golden_digest()[0],
        "simulated": _simulated_digest()}))
    (out / "simd.json").write_text(json.dumps(_dispatched()))


_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
from test_determinism import _write_outputs
_write_outputs(*sys.argv[3:])
"""

# Each setting's variables, on top of the default child's environment. A
# numpy cap drops every dispatched feature from one level up.
_ON = _dispatched()
SETTINGS = {
    **{f"numpy-below-{f}": {"NPY_DISABLE_CPU_FEATURES": " ".join(_ON[i:])}
       for i, f in enumerate(_ON)},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "two-blas-threads": {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The files each setting's child wrote, and the default child's, by setting."""
    tmp = tmp_path_factory.mktemp("determinism")
    # 0.0 and -0.0 between peaks, so the deaths carry both signs
    values = [3.0, 0.0, 2.0, -0.0, 1.0, 0.0, 4.0, -0.0, 0.0, 2.0, -0.0, 0.5, 0.5, 3.0, 0.0]
    values += np.round(np.abs(np.random.default_rng(5).normal(size=300)), 1).tolist()
    spectrum = tmp / "spectrum.csv"
    spectrum.write_text("".join(f"{i},{v!r}\n" for i, v in enumerate(values)))
    inputs = [str(spectrum), *write_dataset(two_class_dataset(n=60, q=300, seed=3), tmp)]
    paths = [str(Path(__file__).resolve().parent),
             str(Path(topopeaks.__file__).resolve().parents[1])]
    # this process's environment, less numpy's CPU-feature variables, at one BLAS thread
    base = {k: v for k, v in os.environ.items()
            if k not in ("NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES")}
    base.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def run(name):
        out = tmp / name
        out.mkdir()
        done = subprocess.run([sys.executable, "-c", _CHILD, *paths, str(out), *inputs],
                              env={**base, **SETTINGS.get(name, {})}, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=300)
        assert done.returncode == 0, (name, done.stderr)
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    names = ["default", *SETTINGS]
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(names, pool.map(run, names)))


def test_default_child_writes_every_output(written):
    files = written["default"]
    assert sorted({name.split("/")[0] for name in files}) == [
        "beta.bin", "bottleneck.txt", "diagram.csv", "digests.json", "fit.json",
        "forest_leave-one-group-out", "forest_two-fold-AB", "gaussian",
        "logistic_leave-one-group-out", "logistic_two-fold-AB", "matrix.bin",
        "pairs.csv", "poisson", "simd.json", "simulate", "triples.csv"]
    assert len(files) == 29  # 8 classify CSVs, 12 PGMs and 9 files more
    deaths = {line.split(",")[1] for line in files["diagram.csv"].decode().split()}
    assert {"0.0", "-0.0"} <= deaths


@pytest.mark.parametrize("setting", SETTINGS)
def test_outputs_equal_the_default_childs(written, setting):
    files, default = dict(written[setting]), dict(written["default"])
    dropped = SETTINGS[setting].get("NPY_DISABLE_CPU_FEATURES", "").split()
    still = sorted(set(json.loads(files.pop("simd.json"))) & set(dropped))
    if still:  # numpy ignores feature names it does not know
        pytest.skip(f"{setting}: numpy still dispatches {still}")
    # The wide logistic fit's coefficients may differ in their last bits: its
    # SVD goes through the BLAS kernels and threads, and its expit through
    # numpy's SIMD exp. Its status, steps and classes, in fit.json, may not.
    del files["beta.bin"], default["beta.bin"], default["simd.json"]
    assert files.keys() == default.keys()
    assert [name for name in files if files[name] != default[name]] == []
