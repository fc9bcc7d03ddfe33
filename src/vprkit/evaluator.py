"""Retrieval evaluation (recall@k) and PCA/whitening compression.

Retrieval is exhaustive cosine search over unit-norm descriptors, which
keeps the evaluator exact at desk scale. Ground truth comes either from
place labels or from a geodesic radius around each query (25 m by
default). Queries with no correct reference at all are excluded from the
recall denominator and reported separately.

Both modes apply one rule (`GroundTruthMatcher._match`). Recall reads it at
each query's retrieved references; only a query without a hit there is
scanned against every reference, in blocks, to learn whether it has a
match at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensorio
from .embeddings import normalize_rows, rows_are_unit
from .errors import FormatError
from .places import haversine
from .tensorio import DescriptorSet

DEFAULT_GEO_RADIUS_M = 25.0
BLOCK_ENTRIES = 1 << 17  # (block, R) entries per query block of retrieval and of the match scan
# eigenvector components at or below this magnitude do not set a column's sign
SIGN_TOL = 1e-12


@dataclass
class GroundTruthMatcher:
    """Decides which references count as correct for a query.

    mode "label": same place_id. mode "geo": within radius_m meters.
    """

    mode: str = "label"
    radius_m: float = DEFAULT_GEO_RADIUS_M

    def __post_init__(self):
        if self.mode not in ("geo", "label"):
            raise ValueError(f"unknown ground-truth mode {self.mode!r}")
        if not self.radius_m >= 0:  # NaN fails too
            raise ValueError("radius_m must be >= 0")

    def _match(self, queries: DescriptorSet, refs: DescriptorSet, cols) -> np.ndarray:
        """Whether the references `cols` are correct for each query: `cols` is a slice of
        all references, giving (Q, R), or each query's (Q, k) reference indices."""
        if self.mode == "label":
            return queries.place_ids[:, None] == refs.place_ids[cols]
        return haversine((queries.lats[:, None], queries.lons[:, None]),
                         (refs.lats[cols], refs.lons[cols])) <= self.radius_m

    def correct(self, queries: DescriptorSet, refs: DescriptorSet) -> np.ndarray:
        """The (Q, R) boolean mask of references that are correct for each query."""
        return self._match(queries, refs, slice(None))

    def found(self, queries: DescriptorSet, refs: DescriptorSet,
              top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`correct` read at the (Q, k) reference indices `top`, and whether each query has a match."""
        hits = self._match(queries, refs, top)
        has_match = hits.any(axis=1)
        # only a query without a hit in its top k is scanned
        missed = np.flatnonzero(~has_match)
        rows = max(1, BLOCK_ENTRIES // (len(refs) or 1))
        for lo in range(0, len(missed), rows):
            idx = missed[lo:lo + rows]
            has_match[idx] = self.correct(queries.take(idx), refs).any(axis=1)
        return hits, has_match

    def matches(self, queries: DescriptorSet, refs: DescriptorSet) -> list[np.ndarray]:
        """Per query, the array of correct reference indices."""
        return [np.flatnonzero(row) for row in self.correct(queries, refs)]


def retrieve_topk(query: np.ndarray, refs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k most cosine-similar reference rows, best first.

    `query` is one (D,) descriptor, giving (k,) indices, or (Q, D) of them,
    giving (Q, k), scored in blocks of about BLOCK_ENTRIES scores. Both sides
    must be unit norm (checked once). Ties resolve toward the smaller index.
    """
    refs = np.asarray(refs, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    queries = np.atleast_2d(query)
    if not 1 <= k <= refs.shape[0]:
        raise ValueError(f"k={k} out of range for {refs.shape[0]} references")
    if not rows_are_unit(refs) or not rows_are_unit(queries):
        raise ValueError("retrieve_topk requires unit-norm descriptors")
    order = np.empty((len(queries), k), dtype=np.intp)
    rows = max(1, BLOCK_ENTRIES // len(refs))
    for lo in range(0, len(queries), rows):
        order[lo:lo + rows] = _best_k(queries[lo:lo + rows] @ refs.T, k)
    return order if query.ndim == 2 else order[0]


def _best_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Per row of a (B, R) score block, the k best columns by (score desc, index asc).

    O(R + k log k) per row: a partial selection finds the k-th best score and
    every column at or above it is kept. A row with more than k such columns
    (a tie at the k-th place) keeps those above it and fills the remaining
    slots with the smallest indices equal to it. Only the k kept scores are
    sorted.
    """
    r = scores.shape[1]
    part = np.partition(scores, r - k, axis=1)
    kth = part[:, r - k, None]
    # the partition puts every score below the k-th place to its left, so a
    # row has more than k scores at or above kth exactly when one there equals it
    tied = np.flatnonzero(part[:, :r - k].max(axis=1, initial=-np.inf) == kth[:, 0])
    keep = scores >= kth
    if len(tied):
        keep[tied] = _first_k_at_or_above(scores[tied], kth[tied], k)
    # one flat scan: np.nonzero of a 2-D mask builds its row indices far more slowly
    chosen = (np.flatnonzero(keep) % r).reshape(len(scores), k)
    best_first = np.argsort(-np.take_along_axis(scores, chosen, axis=1), axis=1, kind="stable")
    return np.take_along_axis(chosen, best_first, axis=1)


def _first_k_at_or_above(scores: np.ndarray, kth: np.ndarray, k: int) -> np.ndarray:
    """Mask of each row's scores above its kth, then its smallest indices equal to it, k in all."""
    above = scores > kth
    ties = scores == kth
    # fewer than k scores lie above kth and at least k at or above it, so
    # exactly k per row are kept, in ascending index order
    fill = k - np.count_nonzero(above, axis=1, keepdims=True)
    return above | (ties & (np.cumsum(ties, axis=1, dtype=np.int32) <= fill))


@dataclass
class QueryTrace:
    query_id: str
    retrieved: list[str]
    first_correct_rank: int | None  # 1-based; None when nothing correct was ranked


@dataclass
class RecallReport:
    ks: list[int]
    recall_at: dict[int, float]
    per_query: list[QueryTrace] = field(default_factory=list)
    queries_evaluated: int = 0
    queries_excluded: int = 0
    label: str = ""

    def __post_init__(self):
        if not self.ks or min(self.ks) < 1 or len(set(self.ks)) < len(self.ks):
            raise ValueError("ks must be distinct positive integers")
        values = [self.recall_at[k] for k in sorted(self.ks)]
        # written so that NaN fails both checks
        if not all(0.0 <= v <= 1.0 for v in values):
            raise ValueError("recall values must lie in [0, 1]")
        if not all(a <= b for a, b in zip(values, values[1:])):
            raise ValueError("recall must be nondecreasing in k")

    def to_kv_lines(self) -> str:
        lines = [
            f"label={self.label}",
            "ks=" + ",".join(str(k) for k in self.ks),
            f"queries_evaluated={self.queries_evaluated}",
            f"queries_excluded={self.queries_excluded}",
        ]
        lines += [f"recall@{k}={self.recall_at[k]!r}" for k in self.ks]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_kv_lines(cls, text: str) -> "RecallReport":
        fields: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            fields[key] = value
        ks = [int(k) for k in fields["ks"].split(",") if k]
        recall_at = {k: float(fields[f"recall@{k}"]) for k in ks}
        return cls(
            ks=ks,
            recall_at=recall_at,
            queries_evaluated=int(fields.get("queries_evaluated", 0)),
            queries_excluded=int(fields.get("queries_excluded", 0)),
            label=fields.get("label", ""),
        )

    def to_text(self) -> str:
        head = " ".join(f"R@{k:<6d}" for k in self.ks)
        vals = " ".join(f"{self.recall_at[k]:<8.4f}" for k in self.ks)
        return (
            f"{head}\n{vals}\n"
            f"queries evaluated: {self.queries_evaluated}, "
            f"excluded (no valid ground truth): {self.queries_excluded}\n"
        )


def recall_at_k(
    queries: DescriptorSet,
    refs: DescriptorSet,
    gt: GroundTruthMatcher,
    ks: list[int],
    label: str = "",
) -> RecallReport:
    """Fraction of queries whose top-k retrieval contains a correct reference.

    A query is counted as solved at k when at least one of its k nearest
    references (by cosine similarity) is a ground-truth match. Queries
    with no match anywhere in the reference set are excluded from the
    denominator; their count is reported.
    """
    if len(queries) == 0:
        raise ValueError("empty query set")
    if len(refs) == 0:
        raise ValueError("empty reference set")
    if queries.vectors.shape[1] != refs.vectors.shape[1]:
        raise ValueError(f"query descriptors have dim {queries.vectors.shape[1]}, "
                         f"references have dim {refs.vectors.shape[1]}")
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be positive integers")
    ks = sorted(set(int(k) for k in ks))
    max_k = min(max(ks), len(refs))

    ref_ids = np.asarray(refs.ids, dtype=object)
    top = retrieve_topk(queries.vectors, refs.vectors, max_k)
    hits, has_match = gt.found(queries, refs, top)
    # 1-based rank of the first correct reference; 0 when none is in the top max_k
    ranks = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, 0)
    traces = [
        QueryTrace(qid, ref_ids[t].tolist() if found else [], int(rank) if rank else None)
        for qid, t, found, rank in zip(queries.ids, top, has_match, ranks)
    ]

    evaluated = int(np.count_nonzero(has_match))
    if evaluated == 0:
        raise ValueError("no query has any ground-truth match in the reference set")
    recall = {k: float(np.count_nonzero((ranks >= 1) & (ranks <= k))) / evaluated for k in ks}
    return RecallReport(
        ks=ks,
        recall_at=recall,
        per_query=traces,
        queries_evaluated=evaluated,
        queries_excluded=len(queries) - evaluated,
        label=label,
    )


# ---------------------------------------------------------------------------
# PCA + whitening
# ---------------------------------------------------------------------------

# a PCA model's tensors, in the order its checkpoint stores them, with their ranks
PCA_TENSOR_RANKS = {"mean": 1, "projection": 2, "eigenvalues": 1}


@dataclass
class PCAModel:
    """Whitening projection learned from a training sample.

    Row i of `projection` is the i-th principal axis scaled by
    1/sqrt(eigenvalue_i + epsilon), so projected training data has
    identity covariance. Eigenvector signs follow a fixed convention
    (first nonzero component positive) making fits byte-reproducible.
    """

    mean: np.ndarray
    projection: np.ndarray
    eigenvalues: np.ndarray
    epsilon: float = 1e-9

    def __post_init__(self):
        for name, rank in PCA_TENSOR_RANKS.items():
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.ndim != rank:
                raise ValueError(f"PCA tensor {name!r} has shape {value.shape}, needs rank {rank}")
            setattr(self, name, value)
        if self.projection.shape != (len(self.eigenvalues), len(self.mean)):
            raise ValueError("projection shape inconsistent with mean/eigenvalues")
        for name in PCA_TENSOR_RANKS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"PCA {name} has non-finite entries")
        if np.any(self.eigenvalues < 0):
            raise ValueError("eigenvalues must be nonnegative")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be nonincreasing")

    @property
    def out_dim(self) -> int:
        return self.projection.shape[0]

    @property
    def in_dim(self) -> int:
        return self.projection.shape[1]

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """Centered, whitened coordinates (no final normalization)."""
        x = np.asarray(x, dtype=np.float64)
        return (x - self.mean) @ self.projection.T

    def as_saved(self) -> "PCAModel":
        """The model as `save_pca_model` stores it: each tensor rounded to float32."""
        return PCAModel(**{name: getattr(self, name).astype(np.float32)
                           for name in PCA_TENSOR_RANKS}, epsilon=self.epsilon)


def save_pca_model(path, model: PCAModel) -> None:
    """Write `model` to `path`: a checkpoint of kind "pca", tensors in `PCA_TENSOR_RANKS` order."""
    tensorio.save_checkpoint(path, "pca", {name: getattr(model, name) for name in PCA_TENSOR_RANKS},
                             {"epsilon": model.epsilon, "out_dim": model.out_dim})


def load_pca_model(path) -> PCAModel:
    """A PCA model checkpoint; FormatError names another kind, a missing tensor or a bad one."""
    kind, tensors, mconf = tensorio.load_checkpoint(path)
    if kind != "pca":
        raise FormatError(f"{path}: checkpoint of kind {kind!r} is not a PCA model")
    try:
        return PCAModel(**{name: tensors[name] for name in PCA_TENSOR_RANKS},
                        epsilon=float(mconf.get("epsilon", PCAModel.epsilon)))
    except KeyError as exc:
        raise FormatError(f"{path}: PCA model has no tensor {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Columns flipped so the first non-negligible component is positive."""
    first = np.argmax(np.abs(vectors) > SIGN_TOL, axis=0)  # row 0 for a column with none
    # that component is negative and non-negligible only when it is below -SIGN_TOL
    flip = vectors[first, np.arange(vectors.shape[1])] < -SIGN_TOL
    return np.where(flip, -vectors, vectors)


def pca_whiten_fit(training: np.ndarray, out_dim: int, epsilon: float = PCAModel.epsilon,
                   overwrite_training: bool = False) -> PCAModel:
    """Learn a whitening transform from training descriptors.

    Centers the data, eigendecomposes the sample covariance (n-1
    denominator) and keeps the out_dim leading axes, each scaled by
    1/sqrt(eigenvalue + epsilon). Requires more samples than output
    dimensions and a covariance of rank at least out_dim.

    `training` is left as it is, unless `overwrite_training` is set: then a
    contiguous float64 array is centered in place, with the same bits as a
    centered copy, so a caller that does not read it again holds the set
    only once (a strided one is still copied: its product can round
    otherwise). Only the out_dim kept eigenvectors are reordered and
    sign-fixed.
    """
    x = np.asarray(training, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("training data must be 2-D")
    n, d = x.shape
    if not 1 <= out_dim <= d:
        raise ValueError(f"out_dim {out_dim} out of range for dimension {d}")
    if n <= out_dim:
        raise ValueError(f"need more than {out_dim} training samples, got {n}")
    if not 0.0 <= epsilon < np.inf:  # NaN fails too
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")

    mean = x.mean(axis=0)
    centered = np.subtract(x, mean, out=x if overwrite_training and x.flags.forc else None)
    cov = centered.T @ centered / (n - 1)
    del centered  # a centered copy is freed before eigh allocates
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)

    rank = int(np.sum(eigvals > max(eigvals[0], 0.0) * 1e-10))
    if out_dim > rank:
        raise ValueError(f"out_dim {out_dim} exceeds training sample rank {rank}")

    top_vals = eigvals[:out_dim]
    # signs are fixed column by column, so fixing only the kept columns gives the same bits
    top_vecs = _fix_eigenvector_signs(eigvecs[:, order[:out_dim]])
    projection = top_vecs.T / np.sqrt(top_vals + epsilon)[:, None]
    return PCAModel(mean, projection, top_vals, epsilon)


def _reduce_rows(model: PCAModel, x: np.ndarray) -> np.ndarray:
    if x.shape[1] != model.in_dim:
        raise ValueError(f"descriptors have dim {x.shape[1]}, model expects {model.in_dim}")
    return normalize_rows(model.whiten(x))


def pca_transform_set(model: PCAModel, ds: DescriptorSet) -> DescriptorSet:
    """Project every descriptor in a set and re-normalize, keeping metadata."""
    return DescriptorSet(_reduce_rows(model, ds.vectors), ds.ids, ds.lats, ds.lons, ds.place_ids)
