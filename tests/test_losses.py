import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import balanced_labels, masks_of, mined_from_masks, random_unit_rows
from oracles import numeric_gradient, relative_error
from vprkit import losses, trainer
from vprkit.embeddings import EmbeddingBatch, normalize_rows, similarity_matrix
from vprkit.losses import (
    LOSS_KINDS,
    LossConfig,
    PairLabels,
    WeakTuple,
    contrastive_loss,
    default_loss_config,
    multi_similarity_loss,
    triplet_loss,
    weak_triplet_loss,
    weak_triplet_total,
    weak_tuples_from_labels,
)
from vprkit.mining import MINER_KINDS, MinedSet, enumerate_pairs, hardest_mining, ms_mining
from vprkit.places import BatchSpec


def rows_with_similarity(s):
    """Two unit rows in the plane whose inner product is exactly s."""
    return np.array([[1.0, 0.0], [s, math.sqrt(1.0 - s * s)]])


def make_batch(rng, num_places=3, images=3, dim=8):
    labels = balanced_labels(num_places, images)
    rows = random_unit_rows(rng, len(labels), dim)
    return EmbeddingBatch(rows, labels)


def mined_set(n, positive_pairs=(), negative_pairs=(), triplets=None):
    """A MinedSet over n samples holding the listed pairs and triplets."""
    masks = np.zeros((2, n, n), dtype=bool)
    for mask, pairs in zip(masks, (positive_pairs, negative_pairs)):
        mask[tuple(np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T)] = True
    trips = None if triplets is None else np.asarray(triplets, dtype=np.intp).reshape(-1, 3)
    return mined_from_masks(masks[0], masks[1], triplet_index=trips)


def fd_gradient(loss_of_batch, batch, h=1e-5):
    """Finite differences of loss(normalize(raw rows)) at the unit rows."""

    def f(raw):
        return loss_of_batch(EmbeddingBatch(normalize_rows(raw), batch.labels))

    return numeric_gradient(f, batch.rows.copy(), h)


class TestContrastive:
    def test_positive_pair_at_full_similarity(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        batch = EmbeddingBatch(rows, np.array([0, 0]))
        pairs = mined_set(2, positive_pairs=[(0, 1)])
        out = contrastive_loss(batch, pairs, LossConfig(margin=0.5))
        assert out.value == pytest.approx(-1.0, abs=1e-12)

    def test_negative_below_margin_inactive(self):
        batch = EmbeddingBatch(rows_with_similarity(0.3), np.array([0, 1]))
        pairs = mined_set(2, negative_pairs=[(0, 1)])
        out = contrastive_loss(batch, pairs, LossConfig(margin=0.5))
        assert out.value == 0.0
        assert np.all(out.grad == 0.0)

    def test_negative_above_margin(self):
        batch = EmbeddingBatch(rows_with_similarity(0.8), np.array([0, 1]))
        pairs = mined_set(2, negative_pairs=[(0, 1)])
        out = contrastive_loss(batch, pairs, LossConfig(margin=0.5))
        assert out.value == pytest.approx(0.3, abs=1e-9)

    def test_empty_mined_set_flagged(self, rng):
        batch = make_batch(rng)
        out = contrastive_loss(batch, MinedSet(), LossConfig())
        assert out.value == 0.0 and out.degenerate
        assert np.all(out.grad == 0.0)

    def test_positive_terms_bounded(self, rng):
        # unit rows bound each positive term by 1 in magnitude; when the
        # similarities are nonnegative the term lies in [-1, 0]
        for _ in range(200):
            labels = balanced_labels(2, 3)
            rows = normalize_rows(np.abs(rng.standard_normal((len(labels), 5))))
            batch = EmbeddingBatch(rows, labels)
            pairs = enumerate_pairs(batch.labels)
            only_pos = mined_set(len(batch), positive_pairs=pairs.positive_pairs)
            out = contrastive_loss(batch, only_pos, LossConfig())
            assert -1.0 - 1e-9 <= out.value <= 1e-9

    def test_positive_terms_never_below_minus_one(self, rng):
        for _ in range(100):
            batch = make_batch(rng, 2, 3, 5)
            pairs = enumerate_pairs(batch.labels)
            only_pos = mined_set(len(batch), positive_pairs=pairs.positive_pairs)
            out = contrastive_loss(batch, only_pos, LossConfig())
            assert out.value >= -1.0 - 1e-9

    def test_gradient_matches_fd(self, rng):
        cfg = LossConfig(margin=0.5)
        checked = 0
        while checked < 20:
            batch = make_batch(rng)
            sim = similarity_matrix(batch)
            pairs = enumerate_pairs(batch.labels)
            margins = [abs(sim[i, k] - cfg.margin) for i, k in pairs.negative_pairs]
            if min(margins) < 1e-3:  # keep clear of the hinge kink
                continue
            out = contrastive_loss(batch, pairs, cfg)
            fd = fd_gradient(lambda b: contrastive_loss(b, pairs, cfg).value, batch)
            assert relative_error(out.grad, fd) < 1e-4
            checked += 1


class TestTriplet:
    def test_satisfied_triplet_is_zero(self, rng):
        batch = make_batch(rng, 2, 2, 6)
        sim = np.array(
            [[1.0, 0.9, 0.2, 0.1], [0.9, 1, 0, 0], [0.2, 0, 1, 0.9], [0.1, 0, 0.9, 1]]
        )
        out = triplet_loss(batch, [(0, 1, 2)], LossConfig(margin=0.1), sim=sim)
        assert out.value == 0.0

    def test_violated_triplet_value(self, rng):
        batch = make_batch(rng, 2, 2, 6)
        sim = np.eye(4)
        sim[0, 1] = sim[1, 0] = 0.5
        sim[0, 2] = sim[2, 0] = 0.6
        out = triplet_loss(batch, [(0, 1, 2)], LossConfig(margin=0.1), sim=sim)
        assert out.value == pytest.approx(0.2, abs=1e-12)

    def test_equal_similarities_no_margin(self, rng):
        batch = make_batch(rng, 2, 2, 6)
        sim = np.eye(4)
        sim[0, 1] = sim[1, 0] = 0.4
        sim[0, 2] = sim[2, 0] = 0.4
        out = triplet_loss(batch, [(0, 1, 2)], LossConfig(margin=0.0), sim=sim)
        assert out.value == 0.0

    def test_empty_triplets(self, rng):
        batch = make_batch(rng)
        out = triplet_loss(batch, [], LossConfig(margin=0.1))
        assert out.value == 0.0 and out.degenerate

    @pytest.mark.parametrize("bad", [-1, 5, 7])
    def test_index_outside_the_batch_rejected(self, rng, bad):
        batch = EmbeddingBatch(random_unit_rows(rng, 5, 4), np.arange(5) % 2)
        mined = MinedSet(triplet_index=np.array([[0, 1, 2], [bad, 2, 1]]))
        for triplets in ([(0, 1, bad)], mined):
            with pytest.raises(ValueError, match=f"^triplet index {bad} out of range for a batch of 5$"):
                triplet_loss(batch, triplets, LossConfig(margin=0.1))

    def test_nonnegative(self, rng):
        for _ in range(200):
            batch = make_batch(rng)
            sim = similarity_matrix(batch)
            mined = hardest_mining(sim, batch.labels)
            out = triplet_loss(batch, mined, LossConfig(margin=0.1), sim=sim)
            assert out.value >= 0.0

    def test_gradient_matches_fd(self, rng):
        cfg = LossConfig(margin=0.1)
        checked = 0
        while checked < 20:
            batch = make_batch(rng)
            sim = similarity_matrix(batch)
            mined = hardest_mining(sim, batch.labels)
            slacks = [abs(sim[i, k] - sim[i, j] + cfg.margin) for i, j, k in mined.triplets]
            if min(slacks) < 1e-3:
                continue
            trips = list(mined.triplets)
            out = triplet_loss(batch, trips, cfg, sim=sim)
            fd = fd_gradient(lambda b: triplet_loss(b, trips, cfg).value, batch)
            assert relative_error(out.grad, fd) < 1e-4
            checked += 1


class TestPairLabels:
    @settings(max_examples=100, deadline=None)
    @given(labels=st.lists(st.integers(0, 3), min_size=2, max_size=12))
    def test_masks_equal_enumerate_pairs(self, labels):
        pairs, full = PairLabels.from_labels(labels), enumerate_pairs(labels)
        assert isinstance(pairs, MinedSet) and pairs.n == full.n
        assert np.array_equal(pairs.positive_index, full.positive_index)
        assert np.array_equal(pairs.negative_index, full.negative_index)

    @pytest.mark.parametrize("loss", [contrastive_loss, multi_similarity_loss, weak_triplet_loss])
    def test_one_label_is_the_empty_set(self, rng, loss):
        batch = EmbeddingBatch(random_unit_rows(rng, 1, 4), np.array([3]))
        pairs = PairLabels.from_labels(batch.labels)
        assert pairs.n == 1 and pairs.stats()["positives"] == pairs.stats()["negatives"] == 0
        out = loss(batch, pairs, LossConfig())
        assert out.degenerate and out.value == 0.0 and not out.grad.any()


class TestMultiSimilarity:
    def test_single_positive_at_margin(self):
        cfg = LossConfig(margin=0.5, ms_alpha=2.0, ms_beta=50.0)
        batch = EmbeddingBatch(rows_with_similarity(0.5), np.array([0, 0]))
        out = multi_similarity_loss(batch, PairLabels.from_labels(batch.labels), cfg)
        assert out.value == pytest.approx(math.log(2.0) / 2.0, abs=1e-9)
        assert out.value == pytest.approx(0.3466, abs=1e-4)

    def test_single_negative_at_margin(self):
        cfg = LossConfig(margin=0.5, ms_alpha=2.0, ms_beta=50.0)
        batch = EmbeddingBatch(rows_with_similarity(0.5), np.array([0, 1]))
        out = multi_similarity_loss(batch, PairLabels.from_labels(batch.labels), cfg)
        assert out.value == pytest.approx(math.log(2.0) / 50.0, abs=1e-9)
        assert out.value == pytest.approx(0.01386, abs=1e-5)

    def test_empty_sets_contribute_zero(self, rng):
        batch = make_batch(rng)
        out = multi_similarity_loss(batch, MinedSet(), LossConfig())
        assert out.value == 0.0
        assert np.all(out.grad == 0.0)

    def test_nonnegative(self, rng):
        cfg = default_loss_config("multi_similarity")
        for _ in range(200):
            batch = make_batch(rng)
            out = multi_similarity_loss(batch, PairLabels.from_labels(batch.labels), cfg)
            assert out.value >= 0.0

    def test_monotone_in_similarities(self, rng):
        cfg = LossConfig(margin=0.5, ms_alpha=2.0, ms_beta=10.0)
        for _ in range(200):
            batch = make_batch(rng, 2, 2, 6)
            pairs = PairLabels.from_labels(batch.labels)
            sim = similarity_matrix(batch)
            base = multi_similarity_loss(batch, pairs, cfg, sim=sim).value

            bump_pos = sim.copy()
            bump_pos[0, 1] += 1e-3
            bump_pos[1, 0] += 1e-3
            lower = multi_similarity_loss(batch, pairs, cfg, sim=bump_pos).value
            assert lower < base  # raising a positive similarity reduces the loss

            bump_neg = sim.copy()
            bump_neg[0, 2] += 1e-3
            bump_neg[2, 0] += 1e-3
            higher = multi_similarity_loss(batch, pairs, cfg, sim=bump_neg).value
            assert higher > base  # raising a negative similarity increases it

    def test_accepts_mined_subsets(self, rng):
        cfg = default_loss_config("multi_similarity")
        batch = make_batch(rng)
        sim = similarity_matrix(batch)
        mined = ms_mining(sim, batch.labels, 0.1)
        out = multi_similarity_loss(batch, mined, cfg, sim=sim)
        assert np.isfinite(out.value)

    def test_gradient_matches_fd_full_pairs(self, rng):
        cfg = LossConfig(margin=0.5, ms_alpha=2.0, ms_beta=50.0)
        for _ in range(20):
            batch = make_batch(rng)
            pairs = PairLabels.from_labels(batch.labels)
            out = multi_similarity_loss(batch, pairs, cfg)
            fd = fd_gradient(lambda b: multi_similarity_loss(b, pairs, cfg).value, batch)
            assert relative_error(out.grad, fd) < 1e-4

    def test_gradient_matches_fd_mined_pairs(self, rng):
        cfg = LossConfig(margin=0.5, ms_alpha=2.0, ms_beta=50.0)
        for _ in range(10):
            batch = make_batch(rng)
            sim = similarity_matrix(batch)
            mined = ms_mining(sim, batch.labels, 0.2)
            if not (len(mined.positive_index) or len(mined.negative_index)):
                continue
            out = multi_similarity_loss(batch, mined, cfg, sim=sim)
            fd = fd_gradient(lambda b: multi_similarity_loss(b, mined, cfg).value, batch)
            assert relative_error(out.grad, fd) < 1e-4


    def test_large_beta_stays_finite(self):
        # beta * (0.8 - margin) = 1400: exp() of that overflows float64
        cfg = LossConfig(margin=0.1, ms_alpha=2.0, ms_beta=2000.0)
        batch = EmbeddingBatch(rows_with_similarity(0.8), np.array([0, 1]))
        mined = mined_set(2, negative_pairs=[(0, 1)])
        out = multi_similarity_loss(batch, mined, cfg)
        assert np.isfinite(out.value)
        assert np.all(np.isfinite(out.grad))
        # log(1 + exp(1400)) / (2000 * 2 anchors), to double precision
        assert out.value == pytest.approx(1400.0 / 2000.0 / 2.0, rel=1e-12)

    def test_equals_direct_formula_where_finite(self, rng):
        def direct(s, labels, cfg):
            a, b, m = cfg.ms_alpha, cfg.ms_beta, cfg.margin
            total = 0.0
            for i in range(len(labels)):
                same = labels == labels[i]
                same[i] = False
                other = labels != labels[i]
                total += np.log1p(np.exp(-a * (s[i, same] - m)).sum()) / a
                total += np.log1p(np.exp(b * (s[i, other] - m)).sum()) / b
            return total / len(labels)

        for beta in (2.0, 50.0, 200.0):
            cfg = LossConfig(margin=0.5, ms_alpha=2.0, ms_beta=beta)
            for _ in range(50):
                batch = make_batch(rng)
                sim = similarity_matrix(batch)
                pairs = PairLabels.from_labels(batch.labels)
                value = multi_similarity_loss(batch, pairs, cfg, sim=sim).value
                assert abs(value - direct(sim, batch.labels, cfg)) < 1e-12

    def test_gradient_matches_fd_large_beta(self, rng):
        cfg = LossConfig(margin=0.5, ms_alpha=2.0, ms_beta=200.0)
        for _ in range(20):
            batch = make_batch(rng)
            pairs = PairLabels.from_labels(batch.labels)
            out = multi_similarity_loss(batch, pairs, cfg)
            fd = fd_gradient(lambda b: multi_similarity_loss(b, pairs, cfg).value, batch)
            assert relative_error(out.grad, fd) < 1e-4


def dense_softplus_logsumexp(x, mask):
    """The MS row terms over the full (N, N) matrix: masked-out entries become -inf."""
    x = np.where(mask, x, -np.inf)
    shift = np.maximum(x.max(axis=1, keepdims=True), 0.0)
    e = np.exp(x - shift)
    total = e.sum(axis=1, keepdims=True)
    return shift + np.log1p(np.expm1(-shift) + total), e / (np.exp(-shift) + total)


def dense_multi_similarity(batch, pairs, cfg, sim):
    """Value and row gradient of the MS loss with exp over every (N, N) entry."""
    n = len(batch)
    a, b, m = cfg.ms_alpha, cfg.ms_beta, cfg.margin
    pos_terms, pos_weights = dense_softplus_logsumexp(-a * (sim - m), pairs.positive)
    neg_terms, neg_weights = dense_softplus_logsumexp(b * (sim - m), pairs.negative)
    value = (pos_terms.sum() / a + neg_terms.sum() / b) / n
    weights = (neg_weights - pos_weights) / n
    grad = (weights + weights.T) @ batch.rows
    return value, grad - np.sum(grad * batch.rows, axis=1, keepdims=True) * batch.rows


ROW_FILL = {"empty": 0.0, "full": 1.0, "sparse": 0.1, "half": 0.5}


class TestMultiSimilarityOverMinedEntries:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        pos_fill=st.lists(st.sampled_from(sorted(ROW_FILL)), min_size=1, max_size=4),
        neg_fill=st.lists(st.sampled_from(sorted(ROW_FILL)), min_size=1, max_size=4),
        alpha=st.floats(0.1, 10.0),
        beta=st.one_of(st.floats(0.1, 2000.0), st.sampled_from([50.0, 2000.0])),
        margin=st.floats(-0.5, 1.0),
    )
    def test_bit_identical_to_dense(self, seed, n, pos_fill, neg_fill, alpha, beta, margin):
        rng = np.random.default_rng(seed)
        batch = EmbeddingBatch(random_unit_rows(rng, n, 6), np.zeros(n, dtype=int))
        sim = similarity_matrix(batch)

        def mask(fills):  # each row empty, full or partly filled, cycling through `fills`
            p = np.array([ROW_FILL[fills[i % len(fills)]] for i in range(n)])
            return rng.uniform(size=(n, n)) < p[:, None]

        pairs = mined_from_masks(mask(pos_fill), mask(neg_fill))
        if not (len(pairs.positive_index) or len(pairs.negative_index)):
            return
        cfg = LossConfig(margin=margin, ms_alpha=alpha, ms_beta=beta)
        out = multi_similarity_loss(batch, pairs, cfg, sim=sim)
        value, grad = dense_multi_similarity(batch, masks_of(pairs), cfg, sim)
        assert np.float64(out.value).tobytes() == np.float64(value).tobytes()
        assert out.grad.tobytes() == grad.tobytes()

    def test_bit_identical_on_a_mined_pk400_batch(self, rng):
        labels = balanced_labels(100, 4)
        centers = np.repeat(rng.standard_normal((100, 64)), 4, axis=0)
        batch = EmbeddingBatch(normalize_rows(rng.standard_normal((400, 64)) + 0.6 * centers),
                               labels)
        sim = similarity_matrix(batch)
        cfg = LossConfig(margin=0.5, ms_alpha=2.0, ms_beta=50.0)
        for pairs in (ms_mining(sim, labels, 0.1), enumerate_pairs(labels)):
            assert len(pairs.negative_index)
            out = multi_similarity_loss(batch, pairs, cfg, sim=sim)
            value, grad = dense_multi_similarity(batch, masks_of(pairs), cfg, sim)
            assert out.value == value
            assert out.grad.tobytes() == grad.tobytes()


class TestWeakTriplet:
    def _sim(self):
        # query 0; positives 1, 2; negatives 3, 4
        sim = np.eye(5)
        sim[0, 1] = sim[1, 0] = 0.5
        sim[0, 2] = sim[2, 0] = 0.8
        sim[0, 3] = sim[3, 0] = 0.3
        sim[0, 4] = sim[4, 0] = 0.75
        return sim

    def test_easy_negative_contributes_zero(self, rng):
        batch = make_batch(rng, 5, 2, 6)
        batch = EmbeddingBatch(batch.rows[:5], np.arange(5))
        weak = WeakTuple(0, [1, 2], [3])
        out = weak_triplet_loss(batch, weak, LossConfig(margin=0.1), sim=self._sim())
        assert out.value == 0.0

    def test_hard_negative_value(self, rng):
        batch = EmbeddingBatch(random_unit_rows(rng, 5, 6), np.arange(5))
        weak = WeakTuple(0, [1, 2], [4])
        out = weak_triplet_loss(batch, weak, LossConfig(margin=0.1), sim=self._sim())
        assert out.value == pytest.approx(0.05, abs=1e-12)

    def test_empty_negatives(self, rng):
        batch = EmbeddingBatch(random_unit_rows(rng, 5, 6), np.arange(5))
        weak = WeakTuple(0, [1, 2], [])
        out = weak_triplet_loss(batch, weak, LossConfig(margin=0.1), sim=self._sim())
        assert out.value == 0.0

    def test_empty_positives_rejected(self):
        with pytest.raises(ValueError):
            weak_triplet_loss(
                EmbeddingBatch(np.eye(3), np.arange(3)),
                WeakTuple(0, [], [1, 2]),
                LossConfig(),
            )

    def test_depends_only_on_best_positive(self, rng):
        batch = EmbeddingBatch(random_unit_rows(rng, 5, 6), np.arange(5))
        weak = WeakTuple(0, [1, 2], [3, 4])
        cfg = LossConfig(margin=0.1)
        sim = self._sim()
        base = weak_triplet_loss(batch, weak, cfg, sim=sim).value
        nudged = sim.copy()
        nudged[0, 1] = nudged[1, 0] = 0.7  # still below the 0.8 maximum
        assert weak_triplet_loss(batch, weak, cfg, sim=nudged).value == base

    def test_gradient_matches_fd(self, rng):
        cfg = LossConfig(margin=0.2)
        checked = 0
        while checked < 20:
            rows = random_unit_rows(rng, 6, 7)
            batch = EmbeddingBatch(rows, np.arange(6))
            weak = WeakTuple(0, [1, 2], [3, 4, 5])
            sim = similarity_matrix(batch)
            pos_sims = sorted(sim[0, [1, 2]])
            best = max(sim[0, 1], sim[0, 2])
            slacks = [abs(sim[0, n] - best + cfg.margin) for n in (3, 4, 5)]
            if pos_sims[1] - pos_sims[0] < 1e-3 or min(slacks) < 1e-3:
                continue  # stay away from argmax switches and hinge kinks
            out = weak_triplet_loss(batch, weak, cfg, sim=sim)
            fd = fd_gradient(lambda b: weak_triplet_loss(b, weak, cfg).value, batch)
            assert relative_error(out.grad, fd) < 1e-4
            checked += 1

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            WeakTuple(0, [1, 2], [2, 3])

    def test_total_is_mean_of_per_tuple_losses(self, rng):
        cfg = LossConfig(margin=0.2)
        for _ in range(50):
            batch = make_batch(rng, 3, 3, 6)
            sim = similarity_matrix(batch)
            tuples = weak_tuples_from_labels(batch.labels)
            tuples.append(WeakTuple(4, [5, 3], [0, 0, 8]))  # unsorted, repeated
            out = weak_triplet_total(batch, tuples, cfg, sim=sim)
            singles = [weak_triplet_loss(batch, weak, cfg, sim=sim) for weak in tuples]
            assert abs(out.value - np.mean([o.value for o in singles])) < 1e-12
            mean_grad = np.mean([o.grad for o in singles], axis=0)
            assert np.max(np.abs(out.grad - mean_grad)) < 1e-12

    def test_total_gradient_matches_fd(self, rng):
        cfg = LossConfig(margin=0.2)
        checked = 0
        while checked < 10:
            batch = make_batch(rng, 3, 3, 6)
            sim = similarity_matrix(batch)
            tuples = weak_tuples_from_labels(batch.labels)
            near_kink = False
            for weak in tuples:
                pos_sims = np.sort(sim[weak.query, weak.potential_positives])
                best = pos_sims[-1]
                slacks = np.abs(sim[weak.query, weak.definite_negatives] - best + cfg.margin)
                near_kink |= pos_sims[-1] - pos_sims[-2] < 1e-3 or slacks.min() < 1e-3
            if near_kink:
                continue  # stay away from argmax switches and hinge kinks
            out = weak_triplet_total(batch, tuples, cfg, sim=sim)
            fd = fd_gradient(lambda b: weak_triplet_total(b, tuples, cfg).value, batch)
            assert relative_error(out.grad, fd) < 1e-4
            checked += 1


class TestInvariances:
    def test_permutation_invariance_all_losses(self, rng):
        for _ in range(200):
            batch = make_batch(rng, 3, 3, 6)
            sim = similarity_matrix(batch)
            pairs = enumerate_pairs(batch.labels)
            mined = hardest_mining(sim, batch.labels)
            cfg_c = LossConfig(margin=0.5)
            cfg_t = LossConfig(margin=0.1)
            cfg_m = default_loss_config("multi_similarity")

            values = (
                contrastive_loss(batch, pairs, cfg_c, sim=sim).value,
                triplet_loss(batch, mined, cfg_t, sim=sim).value,
                multi_similarity_loss(batch, PairLabels.from_labels(batch.labels), cfg_m, sim=sim).value,
            )

            perm = rng.permutation(len(batch))
            inv = np.empty_like(perm)
            inv[perm] = np.arange(len(perm))
            pbatch = EmbeddingBatch(batch.rows[perm], batch.labels[perm])
            psim = similarity_matrix(pbatch)
            ppairs = mined_set(
                len(pbatch),
                positive_pairs=[(int(inv[i]), int(inv[j])) for i, j in pairs.positive_pairs],
                negative_pairs=[(int(inv[i]), int(inv[k])) for i, k in pairs.negative_pairs],
            )
            pmined = mined_set(
                len(pbatch),
                triplets=[(int(inv[i]), int(inv[j]), int(inv[k])) for i, j, k in mined.triplets]
            )
            pvalues = (
                contrastive_loss(pbatch, ppairs, cfg_c, sim=psim).value,
                triplet_loss(pbatch, pmined, cfg_t, sim=psim).value,
                multi_similarity_loss(pbatch, PairLabels.from_labels(pbatch.labels), cfg_m, sim=psim).value,
            )
            np.testing.assert_allclose(pvalues, values, atol=1e-10)

    def test_grad_rows_tangent_to_sphere(self, rng):
        # the reported gradient lives in the tangent space of each unit row
        batch = make_batch(rng)
        out = multi_similarity_loss(
            batch, PairLabels.from_labels(batch.labels), default_loss_config("multi_similarity")
        )
        radial = np.sum(out.grad * batch.rows, axis=1)
        np.testing.assert_allclose(radial, 0.0, atol=1e-12)


class TestWeakTupleBuilders:
    def test_from_labels(self):
        labels = np.array([0, 0, 1, 1])
        tuples = weak_tuples_from_labels(labels)
        assert len(tuples) == 4
        assert tuples[0].query == 0
        assert tuples[0].potential_positives == [1]
        assert tuples[0].definite_negatives == [2, 3]


def tuples_from_masks(masks):
    """One weak tuple per row of (N, N) masks that has a potential positive."""
    pos, neg = masks.positive, masks.negative
    return [
        WeakTuple(int(q), np.flatnonzero(pos[q]).tolist(), np.flatnonzero(neg[q]).tolist())
        for q in np.flatnonzero(pos.any(axis=1))
    ]


def per_tuple_weak_triplet(batch, tuples, cfg, sim):
    """Value, similarity weights and row gradient of the weak-triplet loss,
    walking the tuples one at a time (the best positive is the first listed
    of equal ones)."""
    weights = np.zeros_like(sim)
    if not tuples:
        return 0.0, weights, np.zeros_like(batch.rows)
    value = 0.0
    for weak in tuples:
        row = sim[weak.query]
        pos = np.asarray(weak.potential_positives, dtype=np.intp)
        neg = np.asarray(weak.definite_negatives, dtype=np.intp)
        best = pos[np.argmax(row[pos])]
        terms = row[neg] - row[best] + cfg.margin
        hit = terms > 0.0
        np.add.at(weights[weak.query], neg[hit], 1.0)
        weights[weak.query, best] -= np.count_nonzero(hit)
        value += float(np.sum(terms[hit]))
    weights /= len(tuples)
    grad = (weights + weights.T) @ batch.rows
    grad = grad - np.sum(grad * batch.rows, axis=1, keepdims=True) * batch.rows
    return value / len(tuples), weights, grad


def weak_loss_and_weights(loss, batch, weak, cfg, sim):
    """The loss output and the (N, N) similarity weights it chained to the rows."""
    seen = []
    chain = losses._grad_from_similarity_weights
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_grad_from_similarity_weights",
                   lambda w, b: seen.append(w.copy()) or chain(w, b))
        out = loss(batch, weak, cfg, sim=sim)
    return out, (seen[0] if seen else np.zeros_like(sim))


def assert_matches_per_tuple(out, weights, reference):
    value, ref_weights, ref_grad = reference
    assert abs(out.value - value) <= 1e-12 * abs(value)
    assert weights.tobytes() == ref_weights.tobytes()
    assert out.grad.tobytes() == ref_grad.tobytes()


class TestWeakTripletOverMasks:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        num_tuples=st.integers(0, 12),
        neg_fill=st.sampled_from(sorted(ROW_FILL)),
        margin=st.floats(-0.5, 1.0),
    )
    def test_list_form_matches_per_tuple_loop(self, seed, n, num_tuples, neg_fill, margin):
        rng = np.random.default_rng(seed)
        batch = EmbeddingBatch(random_unit_rows(rng, n, 6), np.arange(n))
        sim = similarity_matrix(batch)
        tuples = []
        for _ in range(num_tuples):
            query = int(rng.integers(n))  # small n repeats queries
            others = rng.permutation(np.delete(np.arange(n), query))  # unsorted
            k = int(rng.integers(1, len(others) + 1))
            rest = others[k:]
            neg = rest[rng.uniform(size=len(rest)) < ROW_FILL[neg_fill]]  # may be empty
            neg = rng.permutation(np.concatenate([neg, neg[: rng.integers(len(neg) + 1)]]))
            tuples.append(WeakTuple(query, others[:k].tolist(), neg.tolist()))
        if tuples:
            tuples.append(tuples[0])  # a listed tuple repeated whole
        cfg = LossConfig(margin=margin)
        out, weights = weak_loss_and_weights(weak_triplet_total, batch, tuples, cfg, sim)
        assert out.degenerate == (not tuples)
        assert_matches_per_tuple(out, weights, per_tuple_weak_triplet(batch, tuples, cfg, sim))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        pos_fill=st.lists(st.sampled_from(sorted(ROW_FILL)), min_size=1, max_size=4),
        neg_fill=st.lists(st.sampled_from(sorted(ROW_FILL)), min_size=1, max_size=4),
        margin=st.floats(-0.5, 1.0),
    )
    def test_mask_form_matches_per_tuple_loop(self, seed, n, pos_fill, neg_fill, margin):
        rng = np.random.default_rng(seed)
        batch = EmbeddingBatch(random_unit_rows(rng, n, 6), np.zeros(n, dtype=int))
        sim = similarity_matrix(batch)

        def mask(fills):  # each row empty, full or partly filled, cycling through `fills`
            p = np.array([ROW_FILL[fills[i % len(fills)]] for i in range(n)])
            return (rng.uniform(size=(n, n)) < p[:, None]) & ~np.eye(n, dtype=bool)

        pos = mask(pos_fill)
        mined = mined_from_masks(pos, mask(neg_fill) & ~pos)
        tuples = tuples_from_masks(masks_of(mined))
        cfg = LossConfig(margin=margin)
        out, weights = weak_loss_and_weights(weak_triplet_loss, batch, mined, cfg, sim)
        assert out.degenerate == (not tuples)
        assert_matches_per_tuple(out, weights, per_tuple_weak_triplet(batch, tuples, cfg, sim))

    def test_pair_labels_and_mined_sets(self, rng):
        batch = make_batch(rng, 4, 3, 6)
        sim = similarity_matrix(batch)
        cfg = LossConfig(margin=0.2)
        for mined in (PairLabels.from_labels(batch.labels), enumerate_pairs(batch.labels),
                      ms_mining(sim, batch.labels, 0.1), hardest_mining(sim, batch.labels)):
            tuples = tuples_from_masks(masks_of(mined))
            out, weights = weak_loss_and_weights(weak_triplet_loss, batch, mined, cfg, sim)
            assert_matches_per_tuple(out, weights, per_tuple_weak_triplet(batch, tuples, cfg, sim))

    def test_equal_potential_positives_pick_the_smaller_index(self, rng):
        batch = EmbeddingBatch(random_unit_rows(rng, 5, 6), np.arange(5))
        sim = np.eye(5)
        sim[0, 1] = sim[1, 0] = sim[0, 2] = sim[2, 0] = 0.8
        sim[0, 4] = sim[4, 0] = 0.75
        cfg = LossConfig(margin=0.1)
        pos, neg = np.zeros((2, 5, 5), dtype=bool)
        pos[0, [1, 2]] = neg[0, 4] = True
        for weak in (WeakTuple(0, [2, 1], [4]), mined_from_masks(pos, neg)):
            out, weights = weak_loss_and_weights(weak_triplet_loss, batch, weak, cfg, sim)
            assert out.value == pytest.approx(0.05, abs=1e-12)
            assert weights[0, 1] == -1.0 and weights[0, 2] == 0.0 and weights[0, 4] == 1.0

    def test_rows_without_a_potential_positive_are_not_queries(self, rng):
        batch = EmbeddingBatch(random_unit_rows(rng, 4, 6), np.arange(4))
        neg = ~np.eye(4, dtype=bool)
        out = weak_triplet_loss(batch, mined_from_masks(np.zeros((4, 4), dtype=bool), neg),
                                LossConfig())
        assert out.degenerate and out.value == 0.0 and not out.grad.any()


def mask_softplus_logsumexp(s, mask, scale, margin):
    """The MS row terms and entry gradients found by boolean mask, not by flat index."""
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


def chain_to_rows(weights, batch):
    grad = (weights + weights.T) @ batch.rows
    return grad - np.sum(grad * batch.rows, axis=1, keepdims=True) * batch.rows


def mask_multi_similarity(batch, pairs, cfg, sim):
    """Value, similarity weights and row gradient of the MS loss over boolean masks."""
    pos, neg = pairs.positive, pairs.negative
    n = len(batch)
    a, b, m = cfg.ms_alpha, cfg.ms_beta, cfg.margin
    pos_terms, pos_grad = mask_softplus_logsumexp(sim, pos, -a, m)
    neg_terms, neg_grad = mask_softplus_logsumexp(sim, neg, b, m)
    value = (pos_terms.sum() / a + neg_terms.sum() / b) / n
    weights = np.zeros_like(sim)
    weights[neg] = neg_grad
    weights[pos] -= pos_grad
    weights /= n
    return value, weights, chain_to_rows(weights, batch)


def mask_contrastive(batch, pairs, cfg, sim):
    """Value, similarity weights and row gradient of the contrastive loss over boolean masks."""
    total_pairs = np.count_nonzero(pairs.positive) + np.count_nonzero(pairs.negative)
    active = pairs.negative & (sim - cfg.margin > 0.0)
    value = (np.sum(sim[active] - cfg.margin) - np.sum(sim[pairs.positive])) / total_pairs
    weights = (active.astype(np.float64) - pairs.positive) / total_pairs
    return float(value), weights, chain_to_rows(weights, batch)


class TestFlatIndexLossesEqualMaskLosses:
    """The losses read mined entries by flat row-major index; over boolean masks
    they give the same value, similarity weights and gradient bytes."""

    LOSSES = [(multi_similarity_loss, mask_multi_similarity), (contrastive_loss, mask_contrastive)]
    # 500 and 2000 make exp underflow to 0 at some entries, so signed zeros meet
    SCALE = st.one_of(st.floats(0.1, 10.0), st.sampled_from([50.0, 500.0, 2000.0]))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        places=st.integers(1, 8),
        source=st.sampled_from(["pair_labels", "row_fill", "ms_mining"]),
        pos_fill=st.lists(st.sampled_from(sorted(ROW_FILL)), min_size=1, max_size=4),
        neg_fill=st.lists(st.sampled_from(sorted(ROW_FILL)), min_size=1, max_size=4),
        alpha=SCALE,
        beta=SCALE,
        margin=st.floats(-0.5, 1.0),
    )
    def test_bytes_equal_mask_code(self, seed, n, places, source, pos_fill, neg_fill,
                                   alpha, beta, margin):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, places, size=n)
        batch = EmbeddingBatch(random_unit_rows(rng, n, 6), labels)
        sim = similarity_matrix(batch)
        if source == "pair_labels":
            pairs = PairLabels.from_labels(labels)
        elif source == "ms_mining":
            pairs = ms_mining(sim, labels, float(rng.uniform(0.0, 0.5)))
        else:  # each row empty, sparse, half or full, cycling through the fills
            def fill(fills):
                p = np.array([ROW_FILL[fills[i % len(fills)]] for i in range(n)])
                return rng.uniform(size=(n, n)) < p[:, None]

            same = labels[:, None] == labels[None, :]
            np.fill_diagonal(same, False)
            pairs = mined_from_masks(same & fill(pos_fill), ~same & fill(neg_fill))
        cfg = LossConfig(margin=margin, ms_alpha=alpha, ms_beta=beta)
        empty = not (len(pairs.positive_index) or len(pairs.negative_index))
        for loss, reference in self.LOSSES:
            out, weights = weak_loss_and_weights(loss, batch, pairs, cfg, sim)
            assert out.degenerate == empty
            if empty:
                assert out.value == 0.0 and not out.grad.any()
                continue
            value, ref_weights, ref_grad = reference(batch, masks_of(pairs), cfg, sim)
            assert np.float64(out.value).tobytes() == np.float64(value).tobytes()
            assert weights.tobytes() == ref_weights.tobytes()
            assert out.grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("loss", [multi_similarity_loss, contrastive_loss, weak_triplet_loss])
    @pytest.mark.parametrize("shape", [(4, 4), (6, 5), (30,), (5, 6, 1)])
    def test_mask_of_the_wrong_shape_rejected(self, rng, loss, shape):
        # the set of a mask's entries is refused when made (an index past n * n) or by the loss
        batch = EmbeddingBatch(random_unit_rows(rng, 5, 4), np.arange(5) % 2)
        wrong = np.ones(shape, dtype=bool)
        for masks in ((wrong, ~wrong), (~wrong, wrong)):
            with pytest.raises(ValueError, match=r"(strictly increasing|is for a batch of \d+;)"):
                loss(batch, mined_from_masks(*masks), LossConfig())

    @pytest.mark.parametrize("loss", [multi_similarity_loss, contrastive_loss, weak_triplet_loss])
    def test_set_for_another_batch_size_rejected(self, rng, loss):
        batch = EmbeddingBatch(random_unit_rows(rng, 5, 4), np.arange(5) % 2)
        for labels in (np.arange(4) % 2, np.arange(6) % 2):
            message = r"^mined set is for a batch of [46]; this batch has 5$"
            with pytest.raises(ValueError, match=message):
                loss(batch, PairLabels.from_labels(labels), LossConfig())

    @pytest.mark.parametrize("loss", [multi_similarity_loss, contrastive_loss, weak_triplet_loss])
    def test_empty_masks_of_any_shape_are_the_empty_set(self, rng, loss):
        batch = EmbeddingBatch(random_unit_rows(rng, 5, 4), np.arange(5) % 2)
        for shape in [(0, 0), (3, 3), (5, 5)]:
            empty = np.zeros(shape, dtype=bool)
            assert loss(batch, mined_from_masks(empty, empty), LossConfig()).degenerate


class TestNanHyperparametersRejected:
    @pytest.mark.parametrize("field", ["ms_alpha", "ms_beta"])
    def test_loss_config(self, field):
        with pytest.raises(ValueError):
            LossConfig(**{field: float("nan")})


def domain(low, high):
    """Floats in [low, high], its endpoints drawn often."""
    return st.one_of(st.sampled_from([low, high]), st.floats(low, high))


class TestLossConfigDomain:
    """Over the whole LossConfig domain, endpoints included, every loss and miner pair
    the trainer accepts gives a finite value and gradient without a numpy warning."""

    PAIRS = [(loss, miner) for loss in LOSS_KINDS for miner in MINER_KINDS
             if loss != "triplet" or miner == "ohm"]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           labels=st.lists(st.integers(0, 3), min_size=2, max_size=12),
           rows=st.sampled_from(["random", "equal", "antipodal"]),
           margin=domain(-2.0, 2.0), alpha=domain(1e-3, 1e4), beta=domain(1e-3, 1e4))
    def test_finite_values_and_gradients(self, seed, labels, rows, margin, alpha, beta):
        rng = np.random.default_rng(seed)
        n = len(labels)
        unit = random_unit_rows(rng, 1 if rows != "random" else n, 6)
        if rows != "random":  # every similarity 1, or +-1 by the row's parity
            sign = np.where(np.arange(n) % 2, -1.0, 1.0) if rows == "antipodal" else np.ones(n)
            unit = sign[:, None] * unit
        batch = EmbeddingBatch(unit, np.array(labels))
        sim = similarity_matrix(batch)
        config = LossConfig(margin=margin, ms_alpha=alpha, ms_beta=beta)
        for loss, miner in self.PAIRS:
            cfg = trainer.TrainConfig(BatchSpec(2, 2), loss=loss, miner=miner, loss_config=config)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                out = trainer._loss(cfg, batch, trainer._mine(cfg, sim, batch.labels), sim)
            assert np.isfinite(out.value) and np.isfinite(out.grad).all(), (loss, miner)

    def test_pairs_are_the_accepted_ones(self):
        for loss in LOSS_KINDS:
            for miner in MINER_KINDS:
                if (loss, miner) not in self.PAIRS:
                    with pytest.raises(ValueError):
                        trainer.TrainConfig(BatchSpec(2, 2), loss=loss, miner=miner)

    @pytest.mark.parametrize("field, value", [
        ("margin", 2.0000001), ("margin", -1e308), ("ms_alpha", 1e-320), ("ms_alpha", 1e308),
        ("ms_beta", 9.99e-4), ("ms_beta", 10000.01)])
    def test_values_outside_rejected(self, field, value):
        with pytest.raises(ValueError, match=r"^(margin|ms_alpha and ms_beta) must be in \["):
            LossConfig(**{field: value})
