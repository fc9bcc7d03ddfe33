"""Online in-batch pair and triplet selection.

Mining runs on the batch similarity matrix right after the forward pass
and picks the informative pairs the loss should see. No miner loops over
anchors or pairs in Python. `enumerate_pairs` is a masked expression over
the whole (N, N) matrix. `hardest_mining` and `ms_mining` work from the
batch's label groups: a row's same-label entries come from the labels
alone, so they build no (N, N) label mask. Each copies the similarities
once with each row's own group at -inf, and one reduction of that copy
gives the hardest negatives. `ms_mining` then keeps the negatives above
each row's threshold with one comparison and finds their flat indices
with one scan, which it hands to the losses with its masks. All
selection is deterministic:
ties break toward the smallest index, so identical inputs always yield
identical mined sets.
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
        `negative`, set only by a miner that found its pairs as indices.
        Its masks are then read-only, so the two forms cannot drift apart.

    The default is the empty set for a batch of any size.
    """

    positive: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=bool))
    negative: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=bool))
    triplet_index: np.ndarray | None = None
    skipped_anchors: list[int] = field(default_factory=list)
    flat_index: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

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
            "positives": int(np.count_nonzero(self.positive)),
            "negatives": int(np.count_nonzero(self.negative)),
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


def hardest_mining(sim: np.ndarray, labels: np.ndarray) -> MinedSet:
    """One triplet per anchor: least similar positive, most similar negative.

    Anchors without any positive or any negative in the batch contribute
    nothing and are recorded in skipped_anchors. Similarities must be
    finite: a row's hardest negative is the row maximum of a copy of `sim`
    whose same-label entries are -inf, which an infinite similarity would
    tie with. Its hardest positive comes from the label groups' entries off
    the diagonal, as in `ms_mining`. Ties go to the smallest index.
    """
    sim = np.asarray(sim, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(labels)
    if sim.shape != (n, n):
        raise ValueError(f"similarity matrix has shape {sim.shape}; {n} labels need ({n}, {n})")
    same, counts = _same_label_index(labels)
    has_both = (counts > 1) & (counts < n)
    anchors = np.flatnonzero(has_both)

    candidates = same[same // n != same % n]  # sorted, so row by row and then by column
    per_row = counts - 1
    # a stable sort by row, then similarity, puts each row's least similar positive first,
    # the smallest column among ties
    by_sim = np.lexsort((sim.take(candidates), candidates // n))
    hardest_pos = candidates[by_sim[(np.cumsum(per_row) - per_row)[anchors]]] % n
    other = sim.copy()
    other.put(same, -np.inf)
    hardest_neg = other.argmax(axis=1)[anchors]  # argmax returns the smallest index of a tie
    del other
    positive = np.zeros((n, n), dtype=bool)
    negative = np.zeros((n, n), dtype=bool)
    positive[anchors, hardest_pos] = True
    negative[anchors, hardest_neg] = True
    return MinedSet(
        positive,
        negative,
        triplet_index=np.stack([anchors, hardest_pos, hardest_neg], axis=1),
        skipped_anchors=np.flatnonzero(~has_both).tolist(),
    )


def _same_label_index(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted flat row-major indices of every same-label entry of the (N, N)
    matrix, the diagonal included, and each row's label count.

    Built from the label groups of a stable sort, in any label order, with
    work in the number of those entries, not in N^2.
    """
    n = len(labels)
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, n])
    size = np.repeat(sizes, sizes)  # per sorted position, its group's size and first position
    first = np.repeat(starts, sizes)
    # sorted position p pairs with the sorted positions first[p] .. first[p] + size[p] - 1
    offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    cols = order[np.repeat(first, size) + offset]
    counts = np.empty(n, dtype=np.intp)
    counts[order] = size
    return np.sort(np.repeat(order, size) * n + cols), counts


def ms_mining(sim: np.ndarray, labels: np.ndarray, epsilon: float = MS_EPSILON) -> MinedSet:
    """Keep pairs that are informative relative to the opposite set.

    Per anchor i, a negative (i, k) survives iff its similarity exceeds
    the hardest (lowest) positive similarity minus epsilon, and a positive
    (i, j) survives iff its similarity is below the hardest (highest)
    negative similarity plus epsilon. Anchors lacking either set yield no
    pairs.

    The positives are the label groups' entries off the diagonal, and a
    row's hardest positive is the minimum over them. Its hardest negative
    is the row maximum of a copy of `sim` whose same-label entries are
    -inf, and that copy's entries above the row's threshold are the kept
    negatives. Minima, maxima and comparisons are exact, so any label
    order keeps the pairs of the masked full-matrix rule. The mined set
    carries the sorted flat indices of both sets.
    """
    if not epsilon >= 0:  # NaN fails this comparison too
        raise ValueError("epsilon must be >= 0")
    sim = np.asarray(sim, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(labels)
    if sim.shape != (n, n):
        raise ValueError(f"similarity matrix has shape {sim.shape}; {n} labels need ({n}, {n})")
    same, counts = _same_label_index(labels)
    has_pos = counts > 1
    has_both = has_pos & (counts < n)

    candidates = same[same // n != same % n]  # sorted, so row by row
    values = sim.take(candidates)
    per_row = counts - 1
    min_pos = np.full(n, np.inf)
    min_pos[has_pos] = np.minimum.reduceat(values, (np.cumsum(per_row) - per_row)[has_pos])
    other = sim.copy()
    other.put(same, -np.inf)
    max_neg = other.max(axis=1, initial=-np.inf)
    # thresholds only where a row has both sets, so an infinite epsilon meets no infinite extreme
    upper = np.add(max_neg, epsilon, out=np.full(n, -np.inf), where=has_both)
    lower = np.subtract(min_pos, epsilon, out=np.full(n, np.inf), where=has_both)

    pos = candidates[values < upper[candidates // n]]
    negative = other > lower[:, None]
    del other
    positive = np.zeros((n, n), dtype=bool)
    positive.put(pos, True)
    positive.flags.writeable = negative.flags.writeable = False
    mined = MinedSet(positive, negative, skipped_anchors=np.flatnonzero(~has_both).tolist())
    mined.flat_index = (pos, np.flatnonzero(negative))
    return mined
