"""Pair- and triplet-based metric-learning losses over a batch.

Every loss consumes the batch similarity matrix (inner products of
unit-norm descriptors) and returns both a scalar value and the gradient
with respect to the embedding rows. Because rows live on the unit sphere,
gradients are composed with the sphere-normalization Jacobian (the
tangent projection at each row), so the trainer receives the derivative
of ``loss(normalize(raw_rows))`` in a single consistent convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingBatch, similarity_matrix
from .mining import MinedSet, label_masks
from .places import haversine


@dataclass
class LossConfig:
    """Margin and weighting hyperparameters shared by the loss family."""

    margin: float = 0.5
    ms_alpha: float = 2.0
    ms_beta: float = 50.0

    def __post_init__(self):
        if not np.isfinite(self.margin):
            raise ValueError("margin must be finite")
        if self.ms_alpha <= 0 or self.ms_beta <= 0:
            raise ValueError("ms_alpha and ms_beta must be positive")


def default_loss_config(kind: str) -> LossConfig:
    """Conventional defaults: the margins differ per loss family."""
    if kind == "contrastive":
        return LossConfig(margin=0.5)
    if kind in ("triplet", "weak_triplet"):
        return LossConfig(margin=0.1)
    if kind == "multi_similarity":
        return LossConfig(margin=0.5, ms_alpha=2.0, ms_beta=50.0)
    raise ValueError(f"unknown loss kind {kind!r}")


@dataclass
class LossOutput:
    """Scalar loss plus d loss / d raw-embedding rows (N, D).

    `degenerate` marks batches where the mined set was empty, so the
    zero value carries no training signal.
    """

    value: float
    grad: np.ndarray
    degenerate: bool = False


@dataclass
class PairLabels:
    """Binary positive-pair indicator: I[i, j] = 1 iff labels match, i != j."""

    indicator: np.ndarray

    def __post_init__(self):
        self.indicator = np.asarray(self.indicator, dtype=bool)
        n = self.indicator.shape[0]
        if self.indicator.shape != (n, n):
            raise ValueError("indicator must be square")
        if np.any(np.diag(self.indicator)):
            raise ValueError("indicator diagonal must be zero")
        if not np.array_equal(self.indicator, self.indicator.T):
            raise ValueError("indicator must be symmetric")

    @property
    def positive(self) -> np.ndarray:
        return self.indicator

    @property
    def negative(self) -> np.ndarray:
        return ~self.indicator & ~np.eye(len(self.indicator), dtype=bool)

    @classmethod
    def from_labels(cls, labels) -> "PairLabels":
        return cls(label_masks(labels)[0])


@dataclass
class WeakTuple:
    """A query, its potential positives and its definite negatives.

    Used when labels are noisy: only the most query-similar potential
    positive is trusted to depict the same place.
    """

    query: int
    potential_positives: list[int]
    definite_negatives: list[int]

    def __post_init__(self):
        pos = set(self.potential_positives)
        neg = set(self.definite_negatives)
        if pos & neg:
            raise ValueError("positive and negative sets overlap")
        if self.query in pos or self.query in neg:
            raise ValueError("query may not appear in its own candidate sets")


def _tangent_project(grad: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # Jacobian of row-wise normalization evaluated at unit rows.
    radial = np.sum(grad * rows, axis=1, keepdims=True)
    return grad - radial * rows


def _grad_from_similarity_weights(weights: np.ndarray, batch: EmbeddingBatch) -> np.ndarray:
    """Chain d loss / d S (as the matrix `weights`) back to the embedding rows."""
    z = batch.rows
    grad = (weights + weights.T) @ z
    return _tangent_project(grad, z)


def _resolve_sim(batch: EmbeddingBatch, sim: np.ndarray | None) -> np.ndarray:
    if sim is None:
        return similarity_matrix(batch)
    sim = np.asarray(sim, dtype=np.float64)
    if sim.shape != (len(batch), len(batch)):
        raise ValueError("similarity matrix does not match batch size")
    return sim


def contrastive_loss(
    batch: EmbeddingBatch,
    pairs: MinedSet,
    cfg: LossConfig,
    sim: np.ndarray | None = None,
) -> LossOutput:
    """Pull positives together, hinge negatives below the margin.

    Per mined pair: -S_ij for positives, max(S_ij - margin, 0) for
    negatives; the total is the mean over all mined pairs.
    """
    s = _resolve_sim(batch, sim)
    total_pairs = np.count_nonzero(pairs.positive) + np.count_nonzero(pairs.negative)
    if total_pairs == 0:
        return LossOutput(0.0, np.zeros_like(batch.rows), degenerate=True)

    active = pairs.negative & (s - cfg.margin > 0.0)
    value = (np.sum(s[active] - cfg.margin) - np.sum(s[pairs.positive])) / total_pairs
    weights = (active.astype(np.float64) - pairs.positive) / total_pairs
    return LossOutput(float(value), _grad_from_similarity_weights(weights, batch))


def _triplet_index(triplets) -> np.ndarray:
    if isinstance(triplets, MinedSet):
        if triplets.triplet_index is None:
            raise ValueError("mined set carries no triplets")
        return triplets.triplet_index
    return np.asarray(triplets, dtype=np.intp).reshape(-1, 3)


def triplet_loss(
    batch: EmbeddingBatch,
    triplets,
    cfg: LossConfig,
    sim: np.ndarray | None = None,
) -> LossOutput:
    """Margin ranking on (anchor, positive, negative) triplets.

    Per triplet: max(S_ik - S_ij + margin, 0), pushing the negative
    similarity below the positive one by at least the margin; the total
    is the mean over triplets. `triplets` is a MinedSet from a triplet
    miner or a list of (anchor, positive, negative) index triples.
    """
    s = _resolve_sim(batch, sim)
    trips = _triplet_index(triplets)
    if len(trips) == 0:
        return LossOutput(0.0, np.zeros_like(batch.rows), degenerate=True)

    i, j, k = trips.T
    terms = s[i, k] - s[i, j] + cfg.margin
    hit = terms > 0.0
    weights = np.zeros_like(s)
    # np.add.at accumulates repeated (anchor, index) entries
    np.add.at(weights, (i[hit], k[hit]), 1.0)
    np.add.at(weights, (i[hit], j[hit]), -1.0)
    value = np.sum(terms[hit]) / len(trips)
    return LossOutput(float(value), _grad_from_similarity_weights(weights / len(trips), batch))


def _softplus_logsumexp(
    s: np.ndarray, mask: np.ndarray, scale: float, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per row i, softplus(logsumexp of x_ij over mask[i]) = log(1 + sum exp(x_ij)),
    with x = scale * (s - margin).

    Returns the (N,) row terms and the gradient d term_i / d x_ij at the
    mask's entries, in row-major order (the order of `s[mask]`). Only those
    entries are exponentiated: shifted by max(row max, 0) so none
    overflows, with the gradient exp(x) / (1 + sum exp(x)) from the same
    shifted values. Each row's total is a dense row sum over the scattered
    exponentials, the summation order of a full (N, N) computation with
    -inf outside the mask, so terms and gradients are bit-identical to it.
    """
    counts = np.count_nonzero(mask, axis=1)
    x = scale * (s[mask] - margin)
    filled = counts > 0
    row_max = np.full(len(mask), -np.inf)
    row_max[filled] = np.maximum.reduceat(x, (np.cumsum(counts) - counts)[filled])
    shift = np.maximum(row_max, 0.0)
    e = np.exp(x - np.repeat(shift, counts))
    scattered = np.zeros(mask.shape)
    scattered[mask] = e
    total = scattered.sum(axis=1)
    terms = shift + np.log1p(np.expm1(-shift) + total)
    return terms, e / np.repeat(np.exp(-shift) + total, counts)


def multi_similarity_loss(
    batch: EmbeddingBatch,
    pairs,
    cfg: LossConfig,
    sim: np.ndarray | None = None,
) -> LossOutput:
    """Softplus-weighted pair loss, averaged over all batch anchors.

    Per anchor i with positive set P_i and negative set N_i:

        (1/alpha) * log(1 + sum_{j in P_i} exp(-alpha (S_ij - m)))
      + (1/beta)  * log(1 + sum_{k in N_i} exp( beta  (S_ik - m)))

    `pairs` is either PairLabels (full supervision) or a MinedSet whose
    per-anchor sets were pre-filtered by a miner; both carry (N, N)
    `positive` and `negative` masks. Anchors with empty sets contribute
    zero. Each log term is evaluated as a softplus of a log-sum-exp, so it
    stays finite for any alpha and beta.
    """
    s = _resolve_sim(batch, sim)
    pos, neg = np.asarray(pairs.positive, dtype=bool), np.asarray(pairs.negative, dtype=bool)
    if not (pos.any() or neg.any()):
        return LossOutput(0.0, np.zeros_like(batch.rows), degenerate=True)
    n = len(batch)
    a, b, m = cfg.ms_alpha, cfg.ms_beta, cfg.margin

    pos_terms, pos_grad = _softplus_logsumexp(s, pos, -a, m)
    neg_terms, neg_grad = _softplus_logsumexp(s, neg, b, m)
    value = (pos_terms.sum() / a + neg_terms.sum() / b) / n
    weights = np.zeros_like(s)
    weights[neg] = neg_grad
    weights[pos] -= pos_grad
    weights /= n
    return LossOutput(value, _grad_from_similarity_weights(weights, batch))


def _weak_triplet(batch, sim, query, pos, neg, cfg: LossConfig) -> LossOutput:
    """Mean weak-triplet loss of queries `query` (T,) over (T, N) potential-positive
    rows `pos` and definite-negative rows `neg` (bool, or a count per listing)."""
    if len(query) == 0:
        return LossOutput(0.0, np.zeros_like(batch.rows), degenerate=True)
    rows = _resolve_sim(batch, sim)[query]
    # argmax returns the first occurrence: ties go to the smaller index
    best = np.where(pos, rows, -np.inf).argmax(axis=1)
    terms = rows - rows[np.arange(len(query)), best][:, None] + cfg.margin
    hits = np.where(terms > 0.0, neg, 0)
    t, col = np.nonzero(hits)
    n = len(batch)
    # integer counts until the division, so the sums are exact in any order
    weights = np.bincount(query[t] * n + col, weights=hits[t, col], minlength=n * n)
    np.add.at(weights, query * n + best, -hits.sum(axis=1))
    weights = weights.reshape(n, n) / len(query)
    value = terms[t, col] @ hits[t, col] / len(query)
    return LossOutput(float(value), _grad_from_similarity_weights(weights, batch))


def weak_triplet_loss(
    batch: EmbeddingBatch,
    weak: WeakTuple | MinedSet | PairLabels,
    cfg: LossConfig,
    sim: np.ndarray | None = None,
) -> LossOutput:
    """Triplet loss against the best potential positive of each query.

    `weak` is one WeakTuple, or a MinedSet or PairLabels whose rows with a
    potential positive are the queries. Each definite negative adds a hinge
    against the query's most similar potential positive (ties go to the
    smaller index); the value is the mean over queries.
    """
    if isinstance(weak, WeakTuple):
        return weak_triplet_total(batch, [weak], cfg, sim=sim)
    query = np.flatnonzero(weak.positive.any(axis=1))
    return _weak_triplet(batch, sim, query, weak.positive[query], weak.negative[query], cfg)


def weak_tuples_from_masks(pos: np.ndarray, neg: np.ndarray) -> list[WeakTuple]:
    """One weak tuple per row of (N, N) masks that has a potential positive."""
    return [
        WeakTuple(int(q), np.flatnonzero(pos[q]).tolist(), np.flatnonzero(neg[q]).tolist())
        for q in np.flatnonzero(pos.any(axis=1))
    ]


def weak_tuples_from_labels(labels) -> list[WeakTuple]:
    """One in-batch weak tuple per anchor that has a positive and a negative."""
    same, diff, has_both = label_masks(labels)
    return weak_tuples_from_masks(same & has_both[:, None], diff)


def weak_tuples_from_geo(
    lats,
    lons,
    positive_radius_m: float = 10.0,
    negative_radius_m: float = 25.0,
) -> list[WeakTuple]:
    """Build weak tuples from raw geotags.

    Potential positives lie within `positive_radius_m` of the query,
    definite negatives beyond `negative_radius_m`; queries with no nearby
    candidate are skipped.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    d = haversine((lats[:, None], lons[:, None]), (lats, lons))
    eye = np.eye(len(lats), dtype=bool)
    pos = (d <= positive_radius_m) & ~eye
    neg = (d >= negative_radius_m) & ~pos & ~eye
    return weak_tuples_from_masks(pos, neg)


def weak_triplet_total(
    batch: EmbeddingBatch,
    tuples: list[WeakTuple],
    cfg: LossConfig,
    sim: np.ndarray | None = None,
) -> LossOutput:
    """Mean of weak_triplet_loss over a list of tuples, each its own query row
    (a repeated query too); a definite negative listed twice counts twice."""
    query = np.array([weak.query for weak in tuples], dtype=np.intp)
    pos, neg = np.zeros((2, len(tuples), len(batch)), dtype=np.intp)
    for t, weak in enumerate(tuples):
        if not weak.potential_positives:
            raise ValueError("weak tuple has no potential positives")
        pos[t, weak.potential_positives] = 1
        neg[t] = np.bincount(weak.definite_negatives, minlength=len(batch))
    return _weak_triplet(batch, sim, query, pos, neg, cfg)
