"""Unit-norm descriptors and their pairwise cosine similarities.

Descriptors are constrained to the unit hypersphere, so the cosine
similarity of two descriptors is exactly their inner product. Everything
here accumulates in float64 regardless of input dtype so that the
symmetry and range guarantees of the similarity matrix hold to tight
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroNormError

NORM_EPS = 1e-12
UNIT_TOL = 1e-6


def first_nonfinite_row(arr: np.ndarray) -> int | None:
    """Index along the first axis of the first row of `arr` with a NaN or infinite
    entry, or None if there is none.

    A finite sum clears the whole array in one pass; only an array whose sum
    is not finite (a bad entry, or finite entries that overflow the sum)
    builds the full mask. Neither raises a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(arr.sum()):
            return None
        bad = ~np.isfinite(arr).reshape(len(arr), -1).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||, raising ZeroNormError when ||v|| <= NORM_EPS."""
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n <= NORM_EPS:
        raise ZeroNormError(f"cannot normalize vector with norm {n:.3e}")
    return v / n


def unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise L2 normalization of a 2-D array, and its (N, 1) row norms."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms <= NORM_EPS):
        bad = int(np.argmin(norms))
        raise ZeroNormError(f"row {bad} has norm {norms[bad, 0]:.3e}")
    return m / norms, norms


def tangent_project(unit: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Each row of `grad` less its part along the same row of `unit`: the Jacobian of
    row-wise L2 normalization at unit rows, applied to a gradient.

    One (N, D) buffer takes the products, then the radial parts, then the result.
    """
    out = np.multiply(unit, grad)
    radial = out.sum(axis=1, keepdims=True)
    np.multiply(unit, radial, out=out)
    return np.subtract(grad, out, out=out)


def normalize_backward(unit: np.ndarray, norms: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Chain (N, D) upstream gradients through z = y / ||y|| row by row, given
    the unit rows z and (N, 1) norms ||y|| that `unit_rows` returned."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != unit.shape:
        raise ValueError(f"upstream has shape {upstream.shape}, expected {unit.shape}")
    grad = tangent_project(unit, upstream)
    grad /= norms
    return grad


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization of a 2-D array."""
    return unit_rows(m)[0]


def _unit_norms(squared_norms: np.ndarray) -> bool:
    """Whether every norm whose square is given lies within UNIT_TOL of 1 (NaN does not)."""
    return bool(np.all(np.abs(np.sqrt(squared_norms) - 1.0) <= UNIT_TOL))


def rows_are_unit(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=np.float64)
    return _unit_norms(np.einsum("ij,ij->i", m, m))  # one pass: no (N, D) array of squares


@dataclass
class EmbeddingBatch:
    """N descriptors with aligned integer place labels.

    `rows` is an (N, D) float64 array of unit-norm rows (enforced at
    construction, in one pass over the rows: a row with a NaN or infinite
    entry has no unit norm, and is looked for only to name the failure).
    """

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {self.rows.shape}")
        if self.labels.shape != (self.rows.shape[0],):
            raise ValueError("labels must align with rows")
        if not rows_are_unit(self.rows):
            if first_nonfinite_row(self.rows) is not None:
                raise ValueError("descriptor entries must be finite")
            raise ValueError("rows are not unit norm")

    @classmethod
    def from_raw(cls, rows: np.ndarray, labels) -> "EmbeddingBatch":
        """Normalize raw row vectors onto the unit sphere."""
        return cls(normalize_rows(rows), np.asarray(labels))

    def __len__(self) -> int:
        return self.rows.shape[0]


def similarity_matrix(batch: EmbeddingBatch) -> np.ndarray:
    """All pairwise inner products of a normalized batch, as an (N, N) array.

    Rejects batches whose rows are not unit norm: on the hypersphere the
    inner product *is* the cosine similarity, and the matrix invariants
    (symmetry, unit diagonal, entries in [-1, 1]) only hold there. The
    product's diagonal holds the squared row norms, so the check reads N
    entries of it instead of the rows again.
    """
    z = np.asarray(batch.rows, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # only rows the check below rejects
        sim = z @ z.T
    if not _unit_norms(np.diagonal(sim)):
        raise ValueError("similarity_matrix requires unit-norm rows")
    return sim
