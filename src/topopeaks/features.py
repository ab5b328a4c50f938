"""Dense persistence feature vectors and matrices."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset
from .persistence import _check_k, _topk_vectors

# Nothing here starts a process. ProcessPoolExecutor stays importable from this
# module only because bench/spans.py patches it when tracing; drop it together
# with that patch.


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """n x q matrix of persistence vectors on a shared m/z axis."""

    values: np.ndarray
    mz: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        mz = np.array(self.mz, dtype=np.float64, copy=True)
        if values.ndim != 2 or mz.ndim != 1 or values.shape[1] != mz.size:
            raise ValueError(f"values must have shape (n, {mz.size})")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("persistence values must be finite and non-negative")
        values.flags.writeable = False
        mz.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mz", mz)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]


def to_persistence_vector(pairs, q: int) -> np.ndarray:
    """Place each pair's persistence at its position in a length-q zero vector."""
    vec = np.zeros(int(q))
    for p in pairs:
        if not 0 <= p.position < q:
            raise ValueError(f"position {p.position} outside spectrum of length {q}")
        vec[p.position] = p.persistence
    return vec


def build_matrix(dataset: LabeledDataset, k) -> FeatureMatrix:
    """Top-k% persistence feature matrix for a labeled dataset.

    Row i is zero except at the retained peak positions of spectrum i, which
    carry their persistence values.
    """
    k = _check_k(k)
    return FeatureMatrix(_topk_vectors(dataset.intensities, k), dataset.mz)


def write_matrix_csv(matrix: FeatureMatrix, path) -> None:
    """Matrix CSV: header row of m/z values, one persistence vector per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(repr(v) for v in matrix.mz.tolist()) + "\n")
        for row in matrix.values:
            fh.write(",".join(repr(v) for v in row.tolist()) + "\n")
