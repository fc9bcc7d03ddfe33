"""Online in-batch pair and triplet selection.

Mining runs on the batch similarity matrix right after the forward pass
and picks the informative pairs the loss should see. No miner loops over
anchors or pairs in Python. A mined set holds its pairs as the sorted
flat row-major indices i * n + j of the (n, n) similarity matrix, and the
losses read those indices. `enumerate_pairs` finds the same-label entries
and their complement. `hardest_mining` and `ms_mining` start from the
batch's label groups (`_label_groups`): a row's same-label entries come
from the labels alone, so they build no (N, N) label mask, and one copy
of the similarities with each row's own group at -inf gives the hardest
negatives in one reduction. `hardest_mining` writes one index per anchor
and side; `ms_mining` keeps the negatives above each row's threshold
with one comparison. All selection is deterministic: ties break toward
the smallest index, so identical inputs always yield identical mined sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MS_EPSILON = 0.1  # ms_mining's margin around an anchor's hardest opposite similarity

# the miner kinds: "all" is `enumerate_pairs`, "ohm" `hardest_mining`, "ms" `ms_mining`
MINER_KINDS = ("all", "ohm", "ms")


@dataclass
class MinedSet:
    """Pairs (and optionally triplets) selected within a batch of n samples.

    positive_index: the sorted flat row-major indices i * n + j of the kept
        (anchor i, positive j) pairs;
    negative_index: the same for the kept (anchor i, negative k) pairs;
    triplet_index: (T, 3) intp (anchor, positive, negative) rows, set by
        triplet miners only;
    skipped_anchors: anchors that had no positive or no negative in batch.

    Each index array becomes a read-only 1-D intp array when the set is
    made, and must be strictly increasing within [0, n * n): the losses'
    row reductions rely on that order. A set without an entry is empty for
    a batch of any size, so the default is the empty set of any batch.
    """

    n: int = 0
    positive_index: np.ndarray = ()
    negative_index: np.ndarray = ()
    triplet_index: np.ndarray | None = None
    skipped_anchors: list[int] = field(default_factory=list)

    def __post_init__(self):
        for name in ("positive_index", "negative_index"):
            index = np.asarray(getattr(self, name), dtype=np.intp).reshape(-1)
            if len(index) and not (0 <= index[0] and index[-1] < self.n * self.n
                                   and np.all(index[1:] > index[:-1])):
                raise ValueError(f"{name} must be strictly increasing in [0, {self.n * self.n})")
            index.flags.writeable = False
            setattr(self, name, index)

    def _pairs(self, index: np.ndarray) -> list[tuple[int, int]]:
        rows, cols = np.divmod(index, self.n)
        return list(zip(rows.tolist(), cols.tolist()))

    @property
    def positive_pairs(self) -> list[tuple[int, int]]:
        """(anchor, positive) pairs in row-major order."""
        return self._pairs(self.positive_index)

    @property
    def negative_pairs(self) -> list[tuple[int, int]]:
        """(anchor, negative) pairs in row-major order."""
        return self._pairs(self.negative_index)

    @property
    def triplets(self) -> list[tuple[int, int, int]] | None:
        if self.triplet_index is None:
            return None
        return list(map(tuple, self.triplet_index.tolist()))

    def stats(self) -> dict[str, int]:
        return {
            "positives": len(self.positive_index),
            "negatives": len(self.negative_index),
            "triplets": 0 if self.triplet_index is None else len(self.triplet_index),
            "skipped_anchors": len(self.skipped_anchors),
        }


def enumerate_pairs(labels: np.ndarray) -> MinedSet:
    """Every ordered positive and negative pair in the batch.

    For a P x K batch this yields P*K*(K-1) positives and P*K*(P-1)*K
    negatives: each sample acts as query, positive and negative at once.
    """
    labels = np.asarray(labels)
    if labels.size < 2:
        raise ValueError("need at least 2 samples to form pairs")
    same = labels[:, None] == labels[None, :]
    negative = np.flatnonzero(~same)
    np.fill_diagonal(same, False)
    return MinedSet(len(labels), np.flatnonzero(same), negative)


def _label_groups(sim, labels) -> tuple[np.ndarray, ...]:
    """`sim` as float64; the sorted flat row-major indices of the same-label entries off the
    diagonal (each row's positives, by row and then column); each row's label count, itself
    included, and the start of its run among those indices; and a copy of `sim` with each row's
    own group, the diagonal included, at -inf. The groups come from a stable sort of the labels,
    in any label order, with work in the number of same-label entries, not in N^2."""
    sim = np.asarray(sim, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(labels)
    if sim.shape != (n, n):
        raise ValueError(f"similarity matrix has shape {sim.shape}; {n} labels need ({n}, {n})")
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, n])
    size = np.repeat(sizes, sizes)  # per sorted position, its group's size and first position
    first = np.repeat(starts, sizes)
    # sorted position p pairs with the sorted positions first[p] .. first[p] + size[p] - 1
    offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    same = np.sort(np.repeat(order, size) * n + order[np.repeat(first, size) + offset])
    counts = np.empty(n, dtype=np.intp)
    counts[order] = size
    other = sim.copy()
    other.put(same, -np.inf)
    per_row = counts - 1
    return sim, same[same // n != same % n], counts, np.cumsum(per_row) - per_row, other


def hardest_mining(sim: np.ndarray, labels: np.ndarray) -> MinedSet:
    """One triplet per anchor: least similar positive, most similar negative.

    Anchors without any positive or any negative in the batch contribute
    nothing and are recorded in skipped_anchors. Similarities must be
    finite: a row's hardest negative is the row maximum of the copy of
    `sim` with its own group at -inf (`_label_groups`), which an infinite
    similarity would tie with. Ties go to the smallest index.
    """
    sim, candidates, counts, run_starts, other = _label_groups(sim, labels)
    n = len(sim)
    has_both = (counts > 1) & (counts < n)
    anchors = np.flatnonzero(has_both)
    # a stable sort by row, then similarity, puts each row's least similar positive first,
    # the smallest column among ties
    by_sim = np.lexsort((sim.take(candidates), candidates // n))
    hardest_pos = candidates[by_sim[run_starts[anchors]]] % n
    hardest_neg = other.argmax(axis=1)[anchors]  # argmax returns the smallest index of a tie
    triplets = np.stack([anchors, hardest_pos, hardest_neg], axis=1)
    return MinedSet(n, anchors * n + hardest_pos, anchors * n + hardest_neg,
                    triplet_index=triplets, skipped_anchors=np.flatnonzero(~has_both).tolist())


def ms_mining(sim: np.ndarray, labels: np.ndarray, epsilon: float = MS_EPSILON) -> MinedSet:
    """Keep pairs that are informative relative to the opposite set.

    Per anchor i, a negative (i, k) survives iff its similarity exceeds
    the hardest (lowest) positive similarity minus epsilon, and a positive
    (i, j) survives iff its similarity is below the hardest (highest)
    negative similarity plus epsilon. Anchors lacking either set yield no
    pairs.

    From the label groups (`_label_groups`), a row's hardest positive is
    the minimum over its run of positives, and its hardest negative the row
    maximum of the copy with its own group at -inf, whose entries above the
    row's threshold are the kept negatives. Minima, maxima and comparisons
    are exact, so any label order keeps the pairs of the masked full-matrix
    rule.
    """
    if not epsilon >= 0:  # NaN fails this comparison too
        raise ValueError("epsilon must be >= 0")
    sim, candidates, counts, run_starts, other = _label_groups(sim, labels)
    n = len(sim)
    has_pos = counts > 1
    has_both = has_pos & (counts < n)
    values = sim.take(candidates)
    min_pos = np.full(n, np.inf)
    min_pos[has_pos] = np.minimum.reduceat(values, run_starts[has_pos])
    max_neg = other.max(axis=1, initial=-np.inf)
    # thresholds only where a row has both sets, so an infinite epsilon meets no infinite extreme
    upper = np.add(max_neg, epsilon, out=np.full(n, -np.inf), where=has_both)
    lower = np.subtract(min_pos, epsilon, out=np.full(n, np.inf), where=has_both)
    return MinedSet(n, candidates[values < upper[candidates // n]],
                    np.flatnonzero(other > lower[:, None]),
                    skipped_anchors=np.flatnonzero(~has_both).tolist())
