import numpy as np
import pytest

from conftest import balanced_labels, random_unit_rows
from oracles import hardest_triplets_by_scan, ms_pairs_by_scan
from vprkit.embeddings import EmbeddingBatch, normalize_rows, similarity_matrix
from vprkit.mining import enumerate_pairs, hardest_mining, ms_mining


def random_sim(rng, labels, dim=6):
    rows = random_unit_rows(rng, len(labels), dim)
    return similarity_matrix(EmbeddingBatch(rows, labels))


class TestEnumeratePairs:
    def test_two_by_two_counts(self):
        mined = enumerate_pairs(np.array([0, 0, 1, 1]))
        assert len(mined.positive_pairs) == 4
        assert len(mined.negative_pairs) == 8

    def test_pk_formula(self):
        for p, k in [(2, 2), (3, 4), (5, 3)]:
            mined = enumerate_pairs(balanced_labels(p, k))
            assert len(mined.positive_pairs) == p * k * (k - 1)
            assert len(mined.negative_pairs) == p * k * (p - 1) * k

    def test_all_distinct_no_positives(self):
        mined = enumerate_pairs(np.arange(5))
        assert mined.positive_pairs == []
        assert len(mined.negative_pairs) == 5 * 4

    def test_single_label_no_negatives(self):
        mined = enumerate_pairs(np.zeros(4, dtype=int))
        assert mined.negative_pairs == []
        assert len(mined.positive_pairs) == 12

    def test_label_consistency(self):
        labels = balanced_labels(3, 3)
        mined = enumerate_pairs(labels)
        assert all(labels[i] == labels[j] and i != j for i, j in mined.positive_pairs)
        assert all(labels[i] != labels[k] for i, k in mined.negative_pairs)


class TestHardestMining:
    def test_picks_least_similar_positive(self):
        labels = np.array([0, 0, 0, 1])
        sim = np.eye(4)
        sim[0, 1] = sim[1, 0] = 0.9
        sim[0, 2] = sim[2, 0] = 0.4
        sim[0, 3] = sim[3, 0] = 0.1
        sim[1, 2] = sim[2, 1] = 0.5
        sim[1, 3] = sim[3, 1] = 0.2
        sim[2, 3] = sim[3, 2] = 0.3
        mined = hardest_mining(sim, labels)
        anchor0 = mined.triplets[0]
        assert anchor0 == (0, 2, 3)

    def test_picks_most_similar_negative(self):
        labels = np.array([0, 0, 1, 1])
        sim = np.eye(4)
        sim[0, 2] = sim[2, 0] = 0.1
        sim[0, 3] = sim[3, 0] = 0.7
        sim[0, 1] = sim[1, 0] = 0.5
        mined = hardest_mining(sim, labels)
        assert mined.triplets[0][2] == 3

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(300):
            labels = balanced_labels(int(rng.integers(2, 6)), int(rng.integers(2, 5)))
            sim = random_sim(rng, labels)
            mined = hardest_mining(sim, labels)
            expected, skipped = hardest_triplets_by_scan(sim, labels)
            assert mined.triplets == expected
            assert mined.skipped_anchors == skipped

    def test_anchor_without_negative_is_skipped(self):
        labels = np.zeros(3, dtype=int)
        mined = hardest_mining(np.eye(3), labels)
        assert mined.triplets == []
        assert mined.skipped_anchors == [0, 1, 2]

    def test_tie_breaks_to_smallest_index(self):
        labels = np.array([0, 0, 0, 1, 1])
        sim = np.full((5, 5), 0.5)
        np.fill_diagonal(sim, 1.0)
        mined = hardest_mining(sim, labels)
        assert mined.triplets[0] == (0, 1, 3)

    def test_invariant_under_monotone_transform(self, rng):
        for _ in range(200):
            labels = balanced_labels(3, 3)
            sim = random_sim(rng, labels)
            a = hardest_mining(sim, labels)
            b = hardest_mining(np.tanh(2.0 * sim), labels)  # strictly increasing
            assert a.triplets == b.triplets


class TestMsMining:
    def test_rule_by_hand(self):
        # anchor 0: positive sim 0.9; negatives 0.85 and 0.2, epsilon 0.1
        labels = np.array([0, 0, 1, 2])
        sim = np.eye(4)
        sim[0, 1] = sim[1, 0] = 0.9
        sim[0, 2] = sim[2, 0] = 0.85
        sim[0, 3] = sim[3, 0] = 0.2
        sim[1, 2] = sim[2, 1] = -0.5
        sim[1, 3] = sim[3, 1] = -0.5
        sim[2, 3] = sim[3, 2] = -0.5
        mined = ms_mining(sim, labels, epsilon=0.1)
        anchor0_negs = [pair for pair in mined.negative_pairs if pair[0] == 0]
        anchor0_pos = [pair for pair in mined.positive_pairs if pair[0] == 0]
        assert anchor0_negs == [(0, 2)]  # 0.85 > 0.9 - 0.1; 0.2 is dropped
        assert anchor0_pos == [(0, 1)]  # 0.9 < 0.85 + 0.1

    def test_anchor_without_positives_contributes_nothing(self):
        labels = np.array([0, 1, 2])
        mined = ms_mining(np.eye(3), labels, epsilon=10.0)
        assert mined.positive_pairs == [] and mined.negative_pairs == []
        assert mined.skipped_anchors == [0, 1, 2]

    def test_infinite_epsilon_keeps_everything(self, rng):
        labels = balanced_labels(3, 3)
        sim = random_sim(rng, labels)
        mined = ms_mining(sim, labels, epsilon=np.inf)
        full = enumerate_pairs(labels)
        assert sorted(mined.positive_pairs) == sorted(full.positive_pairs)
        assert sorted(mined.negative_pairs) == sorted(full.negative_pairs)

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(300):
            labels = balanced_labels(int(rng.integers(2, 6)), int(rng.integers(2, 5)))
            sim = random_sim(rng, labels)
            eps = float(rng.uniform(0.0, 0.5))
            mined = ms_mining(sim, labels, eps)
            pos, neg = ms_pairs_by_scan(sim, labels, eps)
            assert mined.positive_pairs == pos
            assert mined.negative_pairs == neg

    def test_zero_epsilon_never_keeps_separated_positive(self, rng):
        for _ in range(200):
            labels = balanced_labels(3, 3)
            sim = random_sim(rng, labels)
            mined = ms_mining(sim, labels, epsilon=0.0)
            for i, j in mined.positive_pairs:
                neg_sims = [sim[i, k] for k in range(len(labels)) if labels[k] != labels[i]]
                assert sim[i, j] < max(neg_sims)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            ms_mining(np.eye(2), np.array([0, 1]), epsilon=-0.1)

    def test_determinism(self, rng):
        labels = balanced_labels(4, 3)
        sim = random_sim(rng, labels)
        a = ms_mining(sim, labels, 0.2)
        b = ms_mining(sim, labels, 0.2)
        assert a.positive_pairs == b.positive_pairs
        assert a.negative_pairs == b.negative_pairs


class TestSamplerShapedBatches:
    """P x K batches as the sampler draws them: each place's K rows together, the
    places in shuffled order, up to N = 400; also with their rows shuffled and with
    exact similarity ties."""

    def batches(self, rng):
        for p, k in ((2, 2), (7, 3), (25, 4), (100, 4)):
            labels = np.repeat(rng.permutation(5 * p)[:p], k)
            # rows near their place's center, so each row keeps some negatives and drops others
            centers = rng.standard_normal((5 * p, 8))
            sim = similarity_matrix(EmbeddingBatch(
                normalize_rows(centers[labels] + rng.standard_normal((len(labels), 8))), labels))
            yield labels, sim
            rows = rng.permutation(len(labels))
            yield labels[rows], sim[np.ix_(rows, rows)]
            yield labels, np.round(sim * 4.0) / 4.0

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, np.inf])
    def test_matches_exhaustive_scan(self, rng, epsilon):
        for labels, sim in self.batches(rng):
            mined = ms_mining(sim, labels, epsilon)
            pos, neg = ms_pairs_by_scan(sim, labels, epsilon)
            assert mined.positive_pairs == pos
            assert mined.negative_pairs == neg
            assert mined.skipped_anchors == []
            flat = [np.flatnonzero(mined.positive), np.flatnonzero(mined.negative)]
            assert all(np.array_equal(a, b) for a, b in zip(mined.flat_index, flat))


class TestMinedSubsets:
    def test_mined_sets_are_subsets_of_enumeration(self, rng):
        for _ in range(200):
            labels = balanced_labels(3, 3)
            sim = random_sim(rng, labels)
            full = enumerate_pairs(labels)
            pos_all = set(full.positive_pairs)
            neg_all = set(full.negative_pairs)
            for mined in (hardest_mining(sim, labels), ms_mining(sim, labels, 0.1)):
                assert set(mined.positive_pairs) <= pos_all
                assert set(mined.negative_pairs) <= neg_all

    def test_stats_record(self, rng):
        labels = balanced_labels(2, 3)
        sim = random_sim(rng, labels)
        stats = hardest_mining(sim, labels).stats()
        assert stats["triplets"] == 6
        assert stats["skipped_anchors"] == 0


class TestUnbalancedOracles:
    """Singleton places, single-label batches and tied similarities."""

    def cases(self, rng):
        yield np.zeros(5, dtype=int), random_sim(rng, np.zeros(5, dtype=int))
        yield np.arange(5), random_sim(rng, np.arange(5))
        for trial in range(400):
            n = int(rng.integers(1, 12))
            labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
            sim = random_sim(rng, labels)
            if trial % 2:
                sim = np.round(sim * 4.0) / 4.0  # many exact ties
            yield labels, sim

    def test_hardest_matches_exhaustive_scan(self, rng):
        for labels, sim in self.cases(rng):
            mined = hardest_mining(sim, labels)
            expected, skipped = hardest_triplets_by_scan(sim, labels)
            assert mined.triplets == expected
            assert mined.skipped_anchors == skipped

    def test_ms_matches_exhaustive_scan(self, rng):
        for labels, sim in self.cases(rng):
            eps = float(rng.choice([0.0, 0.25, 0.3]))
            mined = ms_mining(sim, labels, eps)
            pos, neg = ms_pairs_by_scan(sim, labels, eps)
            assert mined.positive_pairs == pos
            assert mined.negative_pairs == neg
            assert mined.skipped_anchors == hardest_triplets_by_scan(sim, labels)[1]


def test_nan_epsilon_rejected():
    # NaN fails every comparison, so a `< 0` check would let it through to an empty mined set
    with pytest.raises(ValueError):
        ms_mining(np.eye(2), np.array([0, 0]), epsilon=float("nan"))
