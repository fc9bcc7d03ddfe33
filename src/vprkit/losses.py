"""Pair- and triplet-based metric-learning losses over a batch.

Every loss consumes the batch similarity matrix (inner products of
unit-norm descriptors) and returns both a scalar value and the gradient
with respect to the embedding rows. Because rows live on the unit sphere,
gradients are composed with the sphere-normalization Jacobian at unit
rows (`embeddings.tangent_project`), so the trainer receives the derivative
of ``loss(normalize(raw_rows))`` in a single consistent convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingBatch, similarity_matrix, tangent_project
from .mining import MinedSet, label_masks


@dataclass
class LossConfig:
    """Margin and weighting hyperparameters shared by the loss family."""

    margin: float = 0.5
    ms_alpha: float = 2.0
    ms_beta: float = 50.0

    def __post_init__(self):
        if not np.isfinite(self.margin):
            raise ValueError("margin must be finite")
        if not (self.ms_alpha > 0 and self.ms_beta > 0):  # NaN fails these comparisons too
            raise ValueError("ms_alpha and ms_beta must be positive")


# the loss kinds; kind `k` is computed by `<k>_loss`
LOSS_KINDS = ("contrastive", "triplet", "multi_similarity", "weak_triplet")


def default_loss_config(kind: str) -> LossConfig:
    """Conventional defaults: the triplet losses take margin 0.1, the others LossConfig's own."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    return LossConfig(margin=0.1) if kind.endswith("triplet") else LossConfig()


@dataclass
class LossOutput:
    """Scalar loss plus d loss / d raw-embedding rows (N, D).

    `degenerate` marks batches where the mined set was empty, so the
    zero value carries no training signal.
    """

    value: float
    grad: np.ndarray
    degenerate: bool = False


class PairLabels(MinedSet):
    """Full supervision as a mined set: every in-batch pair the labels define."""

    @classmethod
    def from_labels(cls, labels) -> "PairLabels":
        """The masks of `mining.enumerate_pairs`; one label gives the empty 1 x 1 set."""
        same, diff, _ = label_masks(labels)
        return cls(same, diff)


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


def _grad_from_similarity_weights(weights: np.ndarray, batch: EmbeddingBatch) -> np.ndarray:
    """Chain d loss / d S (as the matrix `weights`) back to the embedding rows."""
    z = batch.rows
    return tangent_project(z, (weights + weights.T) @ z)


def _resolve_sim(batch: EmbeddingBatch, sim: np.ndarray | None) -> np.ndarray:
    if sim is None:
        return similarity_matrix(batch)
    sim = np.asarray(sim, dtype=np.float64)
    if sim.shape != (len(batch), len(batch)):
        raise ValueError("similarity matrix does not match batch size")
    return sim


def _mined_masks(n: int, pairs) -> list[np.ndarray]:
    """The `positive` and `negative` masks of `pairs` as (n, n) booleans.

    Masks with an entry must be (n, n): an entry of another shape would
    name the wrong pairs. Masks without one are the empty set of any
    batch, as `MinedSet()` is.
    """
    masks = [np.asarray(mask, dtype=bool) for mask in (pairs.positive, pairs.negative)]
    if any(mask.shape != (n, n) for mask in masks):
        if any(mask.any() for mask in masks):
            shapes = [mask.shape for mask in masks]
            raise ValueError(f"mined masks have shapes {shapes}; a batch of {n} needs ({n}, {n})")
        masks = [np.zeros((n, n), dtype=bool)] * 2
    return masks


def _mined_index(n: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The sorted flat row-major indices of the positive and negative entries of
    `pairs`: the ones its miner found (`MinedSet.flat_index`), else one
    `np.flatnonzero` scan of each mask checked by `_mined_masks`."""
    flat = getattr(pairs, "flat_index", None)
    if flat is not None and pairs.positive.shape == pairs.negative.shape == (n, n):
        return flat
    return tuple(map(np.flatnonzero, _mined_masks(n, pairs)))


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
    pos, neg = _mined_index(len(batch), pairs)
    total_pairs = len(pos) + len(neg)
    if total_pairs == 0:
        return LossOutput(0.0, np.zeros_like(batch.rows), degenerate=True)

    hinge = s.take(neg) - cfg.margin
    hit = hinge > 0.0
    value = (np.sum(hinge[hit]) - np.sum(s.take(pos))) / total_pairs
    weights = np.zeros(s.size)
    weights[neg[hit]] = 1.0
    weights[pos] -= 1.0
    weights = weights.reshape(s.shape) / total_pairs
    return LossOutput(float(value), _grad_from_similarity_weights(weights, batch))


def _triplet_index(triplets, n: int) -> np.ndarray:
    """The (T, 3) triplet rows of `triplets`, each index in [0, n)."""
    if isinstance(triplets, MinedSet):
        if triplets.triplet_index is None:
            raise ValueError("mined set carries no triplets")
        triplets = triplets.triplet_index
    trips = np.asarray(triplets, dtype=np.intp).reshape(-1, 3)
    outside = trips[(trips < 0) | (trips >= n)]
    if len(outside):
        raise ValueError(f"triplet index {outside[0]} out of range for a batch of {n}")
    return trips


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
    trips = _triplet_index(triplets, len(batch))
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
    s: np.ndarray, idx: np.ndarray, scale: float, margin: float, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row i, softplus(logsumexp of x_ij over the row's entries in idx)
    = log(1 + sum exp(x_ij)), with x = scale * (s - margin).

    `idx` holds sorted flat row-major indices into s. Returns the (N,) row
    terms and the gradient d term_i / d x_ij at those entries, in idx order.
    Only those entries are exponentiated: shifted by max(row max, 0) so none
    overflows, with the gradient exp(x) / (1 + sum exp(x)) from the same
    shifted values. Each row's total is a dense row sum over the exponentials
    scattered into `scratch`, a zeroed (N * N,) buffer that keeps them: the
    summation order of a full (N, N) computation with -inf outside the
    entries, so terms and gradients are bit-identical to it.
    """
    n = len(s)
    offsets = np.searchsorted(idx, np.arange(n + 1) * n)
    counts = np.diff(offsets)
    x = s.take(idx)  # each step in place: x = scale * (s - margin), then its exponential
    x -= margin
    x *= scale
    filled = counts > 0
    row_max = np.full(n, -np.inf)
    row_max[filled] = np.maximum.reduceat(x, offsets[:-1][filled])
    shift = np.maximum(row_max, 0.0)
    x -= np.repeat(shift, counts)
    e = np.exp(x, out=x)
    scratch[idx] = e
    total = scratch.reshape(s.shape).sum(axis=1)
    terms = shift + np.log1p(np.expm1(-shift) + total)
    e /= np.repeat(np.exp(-shift) + total, counts)
    return terms, e


def _values_at(idx: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """values[k] at each entry of `at` equal to idx[k] (idx sorted), 0.0 at the others."""
    if not len(idx):
        return np.zeros(len(at))
    k = np.minimum(np.searchsorted(idx, at), len(idx) - 1)
    return np.where(idx[k] == at, values[k], 0.0)


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

    `pairs` is a MinedSet: every in-batch pair, or the per-anchor sets a
    miner kept. Anchors with empty sets contribute zero. Each log term is
    evaluated as a softplus of a log-sum-exp, so it stays finite for any
    alpha and beta.

    One (N, N) buffer serves both row sums and then holds the similarity
    weights W = (g_neg - g_pos) / n, written at the mined entries only:
    the value of the full-matrix expression at each entry, so no pass
    divides the whole matrix.
    """
    s = _resolve_sim(batch, sim)
    pos, neg = _mined_index(len(batch), pairs)
    if not (len(pos) or len(neg)):
        return LossOutput(0.0, np.zeros_like(batch.rows), degenerate=True)
    n = len(batch)
    a, b, m = cfg.ms_alpha, cfg.ms_beta, cfg.margin

    dense = np.zeros(s.size)
    pos_terms, pos_grad = _softplus_logsumexp(s, pos, -a, m, dense)
    dense[pos] = 0.0
    neg_terms, neg_grad = _softplus_logsumexp(s, neg, b, m, dense)
    value = (pos_terms.sum() / a + neg_terms.sum() / b) / n
    # a subtraction from g_neg, or from zero off the negatives: 0.0 - 0.0 is +0.0
    pos_grad = _values_at(neg, neg_grad, pos) - pos_grad
    neg_grad /= n
    pos_grad /= n
    dense[neg] = neg_grad  # over every exponential the second sum left
    dense[pos] = pos_grad
    return LossOutput(value, _grad_from_similarity_weights(dense.reshape(s.shape), batch))


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
    weak: WeakTuple | MinedSet,
    cfg: LossConfig,
    sim: np.ndarray | None = None,
) -> LossOutput:
    """Triplet loss against the best potential positive of each query.

    `weak` is one WeakTuple, or a MinedSet whose rows with a potential
    positive are the queries. Each definite negative adds a hinge against
    the query's most similar potential positive (ties go to the smaller
    index); the value is the mean over queries.
    """
    if isinstance(weak, WeakTuple):
        return weak_triplet_total(batch, [weak], cfg, sim=sim)
    pos, neg = _mined_masks(len(batch), weak)
    query = np.flatnonzero(pos.any(axis=1))
    return _weak_triplet(batch, sim, query, pos[query], neg[query], cfg)


def weak_tuples_from_labels(labels) -> list[WeakTuple]:
    """One in-batch weak tuple per anchor that has a positive and a negative."""
    same, diff, has_both = label_masks(labels)
    return [
        WeakTuple(int(q), np.flatnonzero(same[q]).tolist(), np.flatnonzero(diff[q]).tolist())
        for q in np.flatnonzero(has_both)
    ]


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
