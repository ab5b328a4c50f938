"""Dense persistence feature vectors and matrices."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor  # noqa: F401

import numpy as np

from .core import LabeledDataset, _mz_axis, _write_csv
from .persistence import _check_k, _topk_vectors

# Nothing here starts a process. ProcessPoolExecutor stays importable from this
# module only because bench/spans.py patches it when tracing; drop it together
# with that patch.


def build_matrix(dataset: LabeledDataset, k) -> np.ndarray:
    """Top-k% persistence feature matrix for a labeled dataset.

    Returns a read-only (n, q) float64 array whose columns follow
    ``dataset.mz``. Row i is zero except at the retained peak positions of
    spectrum i, which carry their persistence values.
    """
    values = _topk_vectors(dataset.intensities, _check_k(k))
    values.flags.writeable = False
    return values


def write_matrix_csv(values, mz, path) -> None:
    """Matrix CSV: header row of the m/z axis ``mz``, then the rows of ``values``."""
    mz = _mz_axis(mz)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != mz.size:
        raise ValueError(f"values must have shape (n, {mz.size})")
    _write_csv(path, values.tolist(), header=mz.tolist())
