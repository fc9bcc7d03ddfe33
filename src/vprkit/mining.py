"""Online in-batch pair and triplet selection.

Mining runs on the batch similarity matrix right after the forward pass
and picks the informative pairs the loss should see. No miner loops over
anchors or pairs in Python. `enumerate_pairs` is a masked expression over
the whole (N, N) matrix. `hardest_mining` and `ms_mining` start from the
batch's label groups (`_label_groups`): a row's same-label entries come
from the labels alone, so they build no (N, N) label mask, and one copy
of the similarities with each row's own group at -inf gives the hardest
negatives in one reduction. `ms_mining` then keeps the negatives above
each row's threshold with one comparison. Every mined set finds the flat
indices of its pairs once, when it is made, and the losses read those.
All selection is deterministic: ties break toward the smallest index, so
identical inputs always yield identical mined sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MS_EPSILON = 0.1  # ms_mining's margin around an anchor's hardest opposite similarity

# the miner kinds: "all" is `enumerate_pairs`, "ohm" `hardest_mining`, "ms" `ms_mining`
MINER_KINDS = ("all", "ohm", "ms")


def _pair_list(mask: np.ndarray) -> list[tuple[int, int]]:
    rows, cols = np.nonzero(mask)
    return list(zip(rows.tolist(), cols.tolist()))


@dataclass
class MinedSet:
    """Pairs (and optionally triplets) selected within a batch of N samples.

    positive: (N, N) bool, row i marks anchor i's kept positives;
    negative: (N, N) bool, row i marks anchor i's kept negatives;
    triplet_index: (T, 3) intp (anchor, positive, negative) rows, set by
        triplet miners only;
    skipped_anchors: anchors that had no positive or no negative in batch;
    flat_index: the sorted flat row-major indices of `positive` and of
        `negative`, found once when the set is made. The masks (the arrays
        passed, when boolean) are then read-only, so the two forms cannot
        drift apart.

    Masks with an entry must share one (N, N) shape; a mask without one is
    empty for a batch of any size, so the default is the empty set of any batch.
    """

    positive: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=bool))
    negative: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=bool))
    triplet_index: np.ndarray | None = None
    skipped_anchors: list[int] = field(default_factory=list)
    flat_index: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masks = [np.asarray(mask, dtype=bool) for mask in (self.positive, self.negative)]
        self.flat_index = tuple(np.flatnonzero(mask) for mask in masks)
        shapes = {mask.shape for mask, flat in zip(masks, self.flat_index) if len(flat)}
        if len(shapes) > 1 or any(len(shape) != 2 or shape[0] != shape[1] for shape in shapes):
            raise ValueError(f"mined masks have shapes {[mask.shape for mask in masks]}; "
                             "masks with an entry need one (N, N) shape")
        for mask in masks:
            mask.flags.writeable = False
        self.positive, self.negative = masks

    @property
    def positive_pairs(self) -> list[tuple[int, int]]:
        """(anchor, positive) pairs in row-major order."""
        return _pair_list(self.positive)

    @property
    def negative_pairs(self) -> list[tuple[int, int]]:
        """(anchor, negative) pairs in row-major order."""
        return _pair_list(self.negative)

    @property
    def triplets(self) -> list[tuple[int, int, int]] | None:
        if self.triplet_index is None:
            return None
        return list(map(tuple, self.triplet_index.tolist()))

    def stats(self) -> dict[str, int]:
        return {
            "positives": len(self.flat_index[0]),
            "negatives": len(self.flat_index[1]),
            "triplets": 0 if self.triplet_index is None else len(self.triplet_index),
            "skipped_anchors": len(self.skipped_anchors),
        }


def label_masks(labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, N) same-label (diagonal cleared) and different-label masks, and
    the (N,) anchors that have both a positive and a negative."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    diff = ~same
    np.fill_diagonal(same, False)
    return same, diff, same.any(axis=1) & diff.any(axis=1)


def enumerate_pairs(labels: np.ndarray) -> MinedSet:
    """Every ordered positive and negative pair in the batch.

    For a P x K batch this yields P*K*(K-1) positives and P*K*(P-1)*K
    negatives: each sample acts as query, positive and negative at once.
    """
    labels = np.asarray(labels)
    if labels.size < 2:
        raise ValueError("need at least 2 samples to form pairs")
    same, diff, _ = label_masks(labels)
    return MinedSet(same, diff)


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
    del other
    positive, negative = np.zeros((2, n, n), dtype=bool)
    positive[anchors, hardest_pos] = True
    negative[anchors, hardest_neg] = True
    triplets = np.stack([anchors, hardest_pos, hardest_neg], axis=1)
    return MinedSet(positive, negative, triplet_index=triplets,
                    skipped_anchors=np.flatnonzero(~has_both).tolist())


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
    negative = other > lower[:, None]
    del other
    positive = np.zeros((n, n), dtype=bool)
    positive.put(candidates[values < upper[candidates // n]], True)
    return MinedSet(positive, negative, skipped_anchors=np.flatnonzero(~has_both).tolist())
