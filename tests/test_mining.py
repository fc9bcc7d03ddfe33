import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import balanced_labels, random_unit_rows
from oracles import hardest_triplets_by_scan, ms_pairs_by_scan
from vprkit.embeddings import EmbeddingBatch, normalize_rows, similarity_matrix
from vprkit.losses import PairLabels
from vprkit.mining import MinedSet, enumerate_pairs, hardest_mining, ms_mining


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

    def test_hardest_matches_exhaustive_scan(self, rng):
        for labels, sim in self.batches(rng):
            mined = hardest_mining(sim, labels)
            expected, skipped = hardest_triplets_by_scan(sim, labels)
            assert mined.triplets == expected
            assert skipped == mined.skipped_anchors == []
            anchors, pos, neg = mined.triplet_index.T
            assert np.array_equal(mined.positive_index, anchors * len(labels) + pos)
            assert np.array_equal(mined.negative_index, anchors * len(labels) + neg)


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


class TestFlatIndex:
    """A mined set is the sorted flat row-major indices i * n + j of its pairs, checked
    when it is made, and counts its pairs from them."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           labels=st.lists(st.integers(-3, 5), min_size=1, max_size=40),
           epsilon=st.sampled_from([0.0, 0.1, 0.3, np.inf]))
    @example(seed=0, labels=[2], epsilon=0.1)
    @example(seed=0, labels=[4] * 7, epsilon=0.1)
    def test_every_miner_and_pair_labels(self, seed, labels, epsilon):
        labels = np.array(labels)
        n = len(labels)
        sim = random_sim(np.random.default_rng(seed), labels)
        triplets, _ = hardest_triplets_by_scan(sim, labels)
        every = ([(i, j) for i in range(n) for j in range(n) if i != j and labels[i] == labels[j]],
                 [(i, k) for i in range(n) for k in range(n) if labels[i] != labels[k]])
        expected = [(ms_mining(sim, labels, epsilon), ms_pairs_by_scan(sim, labels, epsilon)),
                    (hardest_mining(sim, labels), ([(i, j) for i, j, _ in triplets],
                                                   [(i, k) for i, _, k in triplets])),
                    (PairLabels.from_labels(labels), every)]
        if n > 1:  # enumerate_pairs needs a pair
            expected.append((enumerate_pairs(labels), every))
        for mined, pairs in expected:
            assert mined.n == n
            for index, side in zip((mined.positive_index, mined.negative_index), pairs):
                assert index.dtype == np.intp and not index.flags.writeable
                assert index.tolist() == [i * n + j for i, j in side]
            stats = mined.stats()
            assert [stats["positives"], stats["negatives"]] == list(map(len, pairs))

    def test_empty_set(self):
        assert MinedSet().positive_pairs == MinedSet().negative_pairs == []
        assert MinedSet().stats() == {"positives": 0, "negatives": 0, "triplets": 0,
                                      "skipped_anchors": 0}

    def test_a_side_without_an_entry(self):
        mined = MinedSet(4, [], np.flatnonzero(~np.eye(4, dtype=bool)))
        assert mined.positive_pairs == [] and mined.stats()["negatives"] == 12
        assert mined.negative_pairs[:4] == [(0, 1), (0, 2), (0, 3), (1, 0)]

    @pytest.mark.parametrize("positive, negative", [
        ([2, 1], []), ([1, 1], []), ([-1, 2], []), ([], [3, 16]), ([0, 4], [9, 5])],
        ids=["unsorted", "duplicate", "negative", "past_n_squared", "unsorted_negative"])
    def test_bad_indices_rejected_when_made(self, positive, negative):
        message = r"^(positive|negative)_index must be strictly increasing in \[0, 16\)$"
        with pytest.raises(ValueError, match=message):
            MinedSet(4, positive, negative)


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
