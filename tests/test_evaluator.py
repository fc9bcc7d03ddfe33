from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_unit_rows
from oracles import recall_by_hand, topk_by_full_sort, whiten_by_svd
from vprkit import evaluator
from vprkit.aggregators import GemParams, avg_pool, gem_pool, init_conv_ap
from vprkit.embeddings import normalize_rows
from vprkit.errors import ZeroNormError
from vprkit.evaluator import (
    GroundTruthMatcher,
    PCAModel,
    QueryTrace,
    RecallReport,
    pca_transform_set,
    pca_whiten_fit,
    recall_at_k,
    retrieve_topk,
)
from vprkit.places import EARTH_RADIUS_M, SynthConfig, haversine, synth_places
from vprkit.tensorio import DescriptorSet
from vprkit.trainer import embed_feature_maps


def make_set(rng, n, d, labels=None, lat0=10.0, lon0=20.0):
    vectors = random_unit_rows(rng, n, d)
    labels = np.arange(n) if labels is None else np.asarray(labels)
    lats = lat0 + 0.001 * np.arange(n)
    lons = np.full(n, lon0)
    return DescriptorSet(vectors, [f"x{i}" for i in range(n)], lats, lons, labels)


def transform_one(model, v):
    """`pca_transform_set` on the one-row set of descriptor v."""
    one = DescriptorSet(np.reshape(v, (1, -1)), ["v"], [0.0], [0.0], [0])
    return pca_transform_set(model, one).vectors[0]


class TestRetrieveTopk:
    def test_self_match_first(self, rng):
        refs = random_unit_rows(rng, 20, 8)
        assert retrieve_topk(refs[7], refs, 1)[0] == 7

    def test_full_k_is_permutation(self, rng):
        refs = random_unit_rows(rng, 15, 6)
        order = retrieve_topk(refs[0], refs, 15)
        assert sorted(order.tolist()) == list(range(15))

    def test_matches_full_sort_oracle(self, rng):
        for _ in range(100):
            refs = random_unit_rows(rng, 40, 7)
            q = random_unit_rows(rng, 1, 7)[0]
            k = int(rng.integers(1, 41))
            np.testing.assert_array_equal(
                retrieve_topk(q, refs, k), topk_by_full_sort(q, refs, k)
            )

    def test_ties_break_to_smallest_index(self):
        row = np.array([1.0, 0.0])
        refs = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(retrieve_topk(row, refs, 2), [1, 2])

    def test_k_out_of_range(self, rng):
        refs = random_unit_rows(rng, 5, 4)
        with pytest.raises(ValueError):
            retrieve_topk(refs[0], refs, 6)
        with pytest.raises(ValueError):
            retrieve_topk(refs[0], refs, 0)

    def test_unnormalized_rejected(self, rng):
        refs = rng.standard_normal((5, 4))
        with pytest.raises(ValueError):
            retrieve_topk(refs[0], refs, 2)


class TestRetrieveTopkBlock:
    def test_block_equals_row_calls_and_full_sort(self, rng):
        for trial in range(40):
            d = 6
            if trial % 2:
                # one-hot rows: many exact score ties, broken by index
                refs = np.eye(d)[rng.integers(0, d, 30)]
                block = np.eye(d)[rng.integers(0, d, 9)]
            else:
                refs = random_unit_rows(rng, 30, d)
                refs[rng.integers(0, 30, 8)] = refs[rng.integers(0, 30, 8)]  # duplicated rows
                block = np.vstack([refs[:3], random_unit_rows(rng, 6, d)])
            k = int(rng.integers(1, 31))
            top = retrieve_topk(block, refs, k)
            assert top.shape == (len(block), k)
            for b, q in enumerate(block):
                np.testing.assert_array_equal(top[b], retrieve_topk(q, refs, k))
                np.testing.assert_array_equal(top[b], topk_by_full_sort(q, refs, k))

    def test_block_errors(self, rng):
        refs = random_unit_rows(rng, 5, 4)
        block = random_unit_rows(rng, 3, 4)
        for k in (0, 6):
            with pytest.raises(ValueError):
                retrieve_topk(block, refs, k)
        bad = block.copy()
        bad[1] *= 2.0
        with pytest.raises(ValueError):
            retrieve_topk(bad, refs, 2)
        with pytest.raises(ValueError):
            retrieve_topk(block, 2.0 * refs, 2)

    def test_blocks_equal_row_calls_and_check_the_references_once(self, rng, monkeypatch):
        d = 6
        refs = np.eye(d)[rng.integers(0, d, 30)]  # one-hot rows: exact ties, broken by index
        queries = np.vstack([np.eye(d)[rng.integers(0, d, 5)], random_unit_rows(rng, 6, d)])
        by_row = {k: [retrieve_topk(q, refs, k) for q in queries] for k in (1, 7, 30)}
        checked, blocks = [], []

        def rows_are_unit(m):
            checked.append(len(m))
            return real_check(m)

        def best_k(scores, k):
            blocks.append(len(scores))
            return real_best_k(scores, k)

        real_check, real_best_k = evaluator.rows_are_unit, evaluator._best_k
        monkeypatch.setattr(evaluator, "rows_are_unit", rows_are_unit)
        monkeypatch.setattr(evaluator, "_best_k", best_k)
        monkeypatch.setattr(evaluator, "BLOCK_ENTRIES", 3 * len(refs))
        for k, rows in by_row.items():
            checked.clear()
            blocks.clear()
            top = retrieve_topk(queries, refs, k)
            assert top.dtype == np.intp
            np.testing.assert_array_equal(top, np.stack(rows))
            assert checked == [len(refs), len(queries)]
            assert blocks == [3, 3, 3, 2]

    def test_empty_query_block(self, rng):
        refs = random_unit_rows(rng, 5, 4)
        for k in (1, 5):
            top = retrieve_topk(np.zeros((0, 4)), refs, k)
            assert top.shape == (0, k) and top.dtype == np.intp


def topk_by_stable_argsort(scores, k):
    """The full stable sort of every score that retrieve_topk used to run."""
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


SCORE_LEVELS = [-0.5, -0.25, -0.0, 0.0, 0.25, 0.5]  # few levels: ties straddle the k-th place


@st.composite
def quantized_scores(draw, max_rows=4, max_refs=24):
    rows = draw(st.integers(1, max_rows))
    refs = draw(st.integers(1, max_refs))
    levels = st.sampled_from(draw(st.sampled_from([SCORE_LEVELS, [-0.0, 0.0]])))
    scores = draw(arrays(np.float64, (rows, refs), elements=levels))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, refs - 1), st.integers(0, refs - 1)), max_size=6)):
        scores[:, dst] = scores[:, src]  # duplicated reference rows
    return scores


def refs_scoring(scores):
    """Unit references and (B, D) one-hot queries whose cosine scores are exactly `scores`.

    Reference r is (scores[:, r], filler): query b = e_b picks out entry b
    with one exact product, and the filler coordinate makes it unit norm
    (at most four rows of |score| <= 1/2).
    """
    rows, _ = scores.shape
    filler = np.sqrt(1.0 - np.sum(scores * scores, axis=0))
    refs = np.column_stack([scores.T, filler])
    return np.eye(rows, rows + 1), refs


class TestPartialSelection:
    @settings(max_examples=300, deadline=None)
    @given(scores=quantized_scores(max_rows=6, max_refs=40), k=st.integers(1, 40))
    def test_selection_equals_stable_sort(self, scores, k):
        for kk in {1, min(k, scores.shape[1]), scores.shape[1]}:
            np.testing.assert_array_equal(
                evaluator._best_k(scores, kk), topk_by_stable_argsort(scores, kk)
            )

    @settings(max_examples=150, deadline=None)
    @given(scores=quantized_scores(), k=st.integers(1, 24))
    def test_retrieve_topk_on_quantized_scores(self, scores, k):
        block, refs = refs_scoring(scores)
        assert np.array_equal(block @ refs.T, scores)  # the ties are real
        for kk in {1, min(k, len(refs)), len(refs)}:
            top = retrieve_topk(block, refs, kk)
            assert top.shape == (len(block), kk)
            np.testing.assert_array_equal(top, topk_by_stable_argsort(block @ refs.T, kk))
            for b, q in enumerate(block):
                np.testing.assert_array_equal(retrieve_topk(q, refs, kk), top[b])
                np.testing.assert_array_equal(top[b], topk_by_full_sort(q, refs, kk))

    def test_signed_zero_rows_keep_index_order(self, rng):
        scores = rng.choice([-0.0, 0.0], size=(5, 17))
        assert np.signbit(scores).any() and not np.signbit(scores).all()
        for k in range(1, 18):
            np.testing.assert_array_equal(evaluator._best_k(scores, k), np.tile(np.arange(k), (5, 1)))


def with_excess_ties(row, k):
    """A copy of a quantized row with more than k scores at or above its k-th best (k < len)."""
    row = row.copy()
    kth = np.sort(row)[::-1][k - 1]
    if np.count_nonzero(row >= kth) == k:
        # one score below the k-th best rises to it (a zero as the other signed
        # zero), which leaves the k-th best where it was
        row[np.flatnonzero(row < kth)[0]] = -kth if kth == 0 else kth
    return row


@st.composite
def mixed_tie_blocks(draw, max_refs=40):
    """Tie-free continuous rows and quantized rows, interleaved, with a drawn k."""
    refs = draw(st.integers(2, max_refs))
    # distinct scores in each row: a shuffled evenly spaced grid, shifted by a drawn offset
    offset = draw(st.floats(-0.5, 0.5))
    smooth = np.array([draw(st.permutations(range(refs))) for _ in range(draw(st.integers(1, 3)))])
    smooth = (smooth + offset) / refs
    levels = draw(st.sampled_from([SCORE_LEVELS, [-0.0, 0.0]]))
    quantized = draw(arrays(np.float64, (draw(st.integers(1, 3)), refs),
                            elements=st.sampled_from(levels)))
    order = draw(st.permutations(range(len(smooth) + len(quantized))))
    return smooth, quantized, order, draw(st.integers(1, refs))


class TestSelectionPaths:
    """_best_k runs the tie arithmetic only on rows with a tie at the k-th place."""

    @settings(max_examples=300, deadline=None)
    @given(case=mixed_tie_blocks())
    def test_mixed_blocks_equal_stable_sort(self, case):
        smooth, quantized, order, k = case
        refs = smooth.shape[1]
        for kk in {1, k, refs}:
            tied = [with_excess_ties(row, kk) for row in quantized] if kk < refs else quantized
            scores = np.vstack([smooth, tied])[list(order)]
            kth = np.sort(scores, axis=1)[:, refs - kk, None]
            excess = np.count_nonzero(scores >= kth, axis=1) > kk
            # both paths in one call: every quantized row has excess ties, no smooth row has
            assert excess.tolist() == [i >= len(smooth) and kk < refs for i in order]
            np.testing.assert_array_equal(evaluator._best_k(scores, kk),
                                          topk_by_stable_argsort(scores, kk))

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        real = evaluator._first_k_at_or_above

        def spy(scores, kth, k):
            calls.append(scores)
            return real(scores, kth, k)

        monkeypatch.setattr(evaluator, "_first_k_at_or_above", spy)
        return calls

    def test_tie_free_rows_skip_the_tie_arithmetic(self, rng, monkeypatch):
        calls = self._spy(monkeypatch)
        scores = rng.standard_normal((6, 50))
        scores[[1, 4]] = rng.choice([0.0, 0.5], size=(2, 50))
        np.testing.assert_array_equal(evaluator._best_k(scores, 5),
                                      topk_by_stable_argsort(scores, 5))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], scores[[1, 4]])

    def test_all_tied_block_takes_the_tie_arithmetic_on_every_row(self, rng, monkeypatch):
        calls = self._spy(monkeypatch)
        scores = rng.choice([-0.5, 0.0, 0.25, 0.5], size=(7, 60))
        np.testing.assert_array_equal(evaluator._best_k(scores, 9),
                                      topk_by_stable_argsort(scores, 9))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], scores)

    def test_tie_free_block_makes_no_tie_call(self, rng, monkeypatch):
        calls = self._spy(monkeypatch)
        scores = rng.standard_normal((5, 30))
        for k in (1, 7, 30):
            np.testing.assert_array_equal(evaluator._best_k(scores, k),
                                          topk_by_stable_argsort(scores, k))
        assert calls == []


class TestGroundTruth:
    def test_label_mode(self, rng):
        queries = make_set(rng, 3, 4, labels=[5, 6, 7])
        refs = make_set(rng, 4, 4, labels=[6, 5, 5, 9])
        matches = GroundTruthMatcher(mode="label").matches(queries, refs)
        assert matches[0].tolist() == [1, 2]
        assert matches[1].tolist() == [0]
        assert matches[2].tolist() == []

    def test_geo_radius_zero_matches_only_identical(self, rng):
        queries = make_set(rng, 2, 4)
        refs = make_set(rng, 3, 4)
        matches = GroundTruthMatcher(mode="geo", radius_m=0.0).matches(queries, refs)
        assert matches[0].tolist() == [0]
        assert matches[1].tolist() == [1]

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius_m"):
            GroundTruthMatcher(mode="geo", radius_m=float("nan"))

    def test_geo_25m_classifies_planted_pairs(self, rng):
        # references planted ~11 m and ~110 m away from each query
        for trial in range(100):
            lat = float(rng.uniform(-60, 60))
            lon = float(rng.uniform(-170, 170))
            queries = DescriptorSet(
                random_unit_rows(rng, 1, 4), ["q"], np.array([lat]), np.array([lon]), np.array([0])
            )
            refs = DescriptorSet(
                random_unit_rows(rng, 2, 4),
                ["near", "far"],
                np.array([lat + 0.0001, lat + 0.001]),
                np.array([lon, lon]),
                np.array([0, 1]),
            )
            matches = GroundTruthMatcher(mode="geo", radius_m=25.0).matches(queries, refs)
            assert matches[0].tolist() == [0]


LATS = st.one_of(st.sampled_from([-90.0, -89.99999, -45.0, 0.0, 45.0, 89.99999, 90.0]),
                 st.floats(-90.0, 90.0))
LONS = st.one_of(st.sampled_from([-180.0, -179.99999, 0.0, 179.99999, 180.0]),
                 st.floats(-180.0, 180.0))
HALF_CIRCUMFERENCE_M = np.pi * EARTH_RADIUS_M


@st.composite
def geo_case(draw):
    """(query lats, lons), (reference lats, lons) and a radius.

    References sit at query positions (duplicates), at multiples of the
    radius away in latitude (on and around the radius's reach), or anywhere.
    """
    radius = draw(st.one_of(
        st.sampled_from([0.0, 25.0, 300.0, 1e7, HALF_CIRCUMFERENCE_M, 1.01 * HALF_CIRCUMFERENCE_M]),
        st.floats(0.0, 2.5e7)))
    reach = np.degrees(radius / EARTH_RADIUS_M)
    queries = draw(st.lists(st.tuples(LATS, LONS), min_size=1, max_size=8))
    refs = []
    for i, step, lon in draw(st.lists(
            st.tuples(st.integers(0, len(queries) - 1),
                      st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0)),
                      st.one_of(st.none(), LONS)),
            max_size=24)):
        lat = float(np.clip(queries[i][0] + step * reach, -90.0, 90.0))
        refs.append((lat, queries[i][1] if lon is None else lon))
    refs += draw(st.lists(st.tuples(LATS, LONS), max_size=6))
    return np.array(queries).reshape(-1, 2), np.array(refs).reshape(-1, 2), radius


def located_set(points):
    n = len(points)
    return DescriptorSet(np.ones((n, 1)), [f"p{i}" for i in range(n)], points[:, 0], points[:, 1],
                         np.zeros(n, int))


class TestLatitudeBand:
    """Geo ground truth equals the full distance mask, whole or one query row at a time.

    The cases probe the poles, the antimeridian and references on and
    around the radius's reach in latitude, where the latitude-band pruning
    this class was named for (since removed) could have lost a match.
    """

    @staticmethod
    def full_mask(queries, refs, radius):
        return haversine((queries.lats[:, None], queries.lons[:, None]),
                         (refs.lats, refs.lons)) <= radius

    @settings(max_examples=300, deadline=None)
    @given(case=geo_case())
    def test_equals_full_haversine_mask(self, case):
        q_points, r_points, radius = case
        queries, refs = located_set(q_points), located_set(r_points)
        gt = GroundTruthMatcher(mode="geo", radius_m=radius)
        expected = self.full_mask(queries, refs, radius)
        np.testing.assert_array_equal(gt.correct(queries, refs), expected)
        for i in range(len(queries)):  # one-row blocks
            np.testing.assert_array_equal(gt.correct(queries.take([i]), refs), expected[i:i + 1])

    def test_poles_and_antimeridian(self):
        queries = located_set(np.array([[90.0, 0.0], [-90.0, 180.0], [0.0, 180.0]]))
        refs = located_set(np.array([[90.0, 123.0], [89.999, -45.0], [-90.0, -180.0],
                                     [0.0, -180.0], [0.0, 179.9999], [0.0, -179.9999]]))
        gt = GroundTruthMatcher(mode="geo", radius_m=25.0)
        np.testing.assert_array_equal(gt.correct(queries, refs), [
            [True, False, False, False, False, False],
            [False, False, True, False, False, False],
            [False, False, False, True, True, True],
        ])
        np.testing.assert_array_equal(gt.correct(queries, refs), self.full_mask(queries, refs, 25.0))

    def test_recall_band_scans_only_queries_without_a_hit(self, monkeypatch):
        refs = DescriptorSet(np.eye(10), [f"p{i}" for i in range(10)], np.arange(0.0, 91.0, 10.0),
                             np.zeros(10), np.zeros(10, int))  # unit vector i at latitude 10 i
        # queries in shuffled latitude order; q0 sits on p7 but looks like p3, so its
        # match lies outside its top 5, and q2 at latitude 45 has no match at all
        queries = refs.take([3, 9, 4, 0, 5])
        queries.ids[:] = [f"q{i}" for i in range(5)]
        queries.lats[[0, 2]] = [70.0, 45.0]
        widths, scanned = [], []

        def counted(a, b):
            widths.append(np.shape(b[0]))
            return haversine(a, b)

        def correct(self, qs, rs):
            scanned.append(qs.ids)
            return real_correct(self, qs, rs)

        real_correct = GroundTruthMatcher.correct
        monkeypatch.setattr(evaluator, "haversine", counted)
        monkeypatch.setattr(GroundTruthMatcher, "correct", correct)
        monkeypatch.setattr(evaluator, "BLOCK_ENTRIES", len(refs))  # one-row scan blocks
        report = recall_at_k(queries, refs, GroundTruthMatcher(mode="geo", radius_m=25.0), [1, 5])
        # the (Q, k) retrieved references, then the two queries without a hit,
        # each against every reference
        assert widths == [(5, 5), (10,), (10,)]
        assert scanned == [["q0"], ["q2"]]
        assert report.recall_at == {1: 0.75, 5: 0.75}
        assert (report.queries_evaluated, report.queries_excluded) == (4, 1)
        assert [t.query_id for t in report.per_query] == queries.ids
        assert [t.first_correct_rank for t in report.per_query] == [None, 1, None, 1, 1]
        assert report.per_query[0].retrieved == ["p3", "p0", "p1", "p2", "p4"]
        assert report.per_query[2].retrieved == []


@st.composite
def top_indices(draw, q, r):
    """A (q, k) index matrix into r references: from retrieve_topk, drawn freely, or k = r."""
    source = draw(st.sampled_from(["retrieve", "arbitrary", "all"]) if r else st.just("arbitrary"))
    if source == "arbitrary":
        k = draw(st.integers(0 if r == 0 else 1, r))
        return draw(arrays(np.intp, (q, k), elements=st.integers(0, max(r - 1, 0))))
    k = r if source == "all" else draw(st.integers(1, r))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return retrieve_topk(random_unit_rows(rng, q, 4), random_unit_rows(rng, r, 4), k)


class TestFoundAtTopK:
    """GroundTruthMatcher.found equals the full ground-truth mask read at top."""

    @staticmethod
    def check(gt, queries, refs, top, full):
        r = len(refs)
        # the default budget, one-row and three-row scan blocks
        for budget in (evaluator.BLOCK_ENTRIES, 1, 3 * max(r, 1)):
            with mock.patch.object(evaluator, "BLOCK_ENTRIES", budget):
                hits, has_match = gt.found(queries, refs, top)
            np.testing.assert_array_equal(hits, np.take_along_axis(full, top, axis=1))
            np.testing.assert_array_equal(has_match, full.any(axis=1))

    @settings(max_examples=300, deadline=None)
    @given(case=geo_case(), data=st.data())
    def test_geo_equals_full_mask_at_top(self, case, data):
        q_points, r_points, radius = case
        queries, refs = located_set(q_points), located_set(r_points)
        top = data.draw(top_indices(len(queries), len(refs)))
        self.check(GroundTruthMatcher(mode="geo", radius_m=radius), queries, refs, top,
                   TestLatitudeBand.full_mask(queries, refs, radius))

    @settings(max_examples=200, deadline=None)
    @given(q_labels=st.lists(st.integers(0, 6), min_size=1, max_size=8),
           r_labels=st.lists(st.integers(0, 6), max_size=12), data=st.data())
    def test_label_equals_full_mask_at_top(self, q_labels, r_labels, data):
        queries = located_set(np.zeros((len(q_labels), 2)))
        refs = located_set(np.zeros((len(r_labels), 2)))
        queries.place_ids[:], refs.place_ids[:] = q_labels, r_labels
        top = data.draw(top_indices(len(queries), len(refs)))
        self.check(GroundTruthMatcher(mode="label"), queries, refs, top,
                   queries.place_ids[:, None] == refs.place_ids[None, :])


class TestRecallAtK:
    def test_perfect_retrieval(self, rng):
        refs = make_set(rng, 10, 6)
        queries = DescriptorSet(
            refs.vectors.copy(), list(refs.ids), refs.lats, refs.lons, refs.place_ids
        )
        report = recall_at_k(queries, refs, GroundTruthMatcher(mode="label"), [1, 5])
        assert report.recall_at[1] == 1.0
        assert report.recall_at[5] == 1.0

    def test_all_wrong(self, rng):
        # queries match a label whose reference vector is antipodal
        vecs = random_unit_rows(rng, 4, 6)
        refs = DescriptorSet(
            vecs, ["a", "b", "c", "d"], np.zeros(4), np.zeros(4), np.array([0, 0, 1, 1])
        )
        queries = DescriptorSet(
            normalize_rows(-vecs[2:3] + 1e-3), ["q"], np.zeros(1), np.zeros(1), np.array([1])
        )
        report = recall_at_k(queries, refs, GroundTruthMatcher(mode="label"), [1])
        assert report.recall_at[1] in (0.0, 1.0)  # smoke: value well-formed

    def test_no_candidate_below_max_k(self, rng):
        refs = make_set(rng, 6, 5, labels=[0, 0, 0, 1, 1, 1])
        q_vec = normalize_rows(np.ones((1, 5)))
        # make the correct references the three *least* similar rows
        scores = refs.vectors @ q_vec[0]
        worst = np.argsort(scores)[:3]
        labels = np.full(6, 1)
        labels[worst] = 0
        refs = DescriptorSet(refs.vectors, refs.ids, refs.lats, refs.lons, labels)
        queries = DescriptorSet(q_vec, ["q"], np.zeros(1), np.zeros(1), np.array([0]))
        report = recall_at_k(queries, refs, GroundTruthMatcher(mode="label"), [1, 2, 3])
        assert report.recall_at[1] == 0.0 and report.recall_at[2] == 0.0 and report.recall_at[3] == 0.0

    def test_matches_hand_count_oracle(self, rng):
        for _ in range(100):
            refs_vec = random_unit_rows(rng, 200, 8)
            q_vec = random_unit_rows(rng, 50, 8)
            ref_labels = rng.integers(0, 40, size=200)
            q_labels = rng.integers(0, 40, size=50)
            refs = DescriptorSet(
                refs_vec, [f"r{i}" for i in range(200)], np.zeros(200), np.zeros(200), ref_labels
            )
            queries = DescriptorSet(
                q_vec, [f"q{i}" for i in range(50)], np.zeros(50), np.zeros(50), q_labels
            )
            ks = [1, 5, 10]
            report = recall_at_k(queries, refs, GroundTruthMatcher(mode="label"), ks)
            match_sets = [
                set(np.nonzero(ref_labels == ql)[0].tolist()) for ql in q_labels
            ]
            expected, evaluated, excluded = recall_by_hand(q_vec, refs_vec, match_sets, ks)
            assert report.queries_evaluated == evaluated
            assert report.queries_excluded == excluded
            for k in ks:
                assert report.recall_at[k] == pytest.approx(expected[k], abs=1e-12)

    def test_monotone_in_k(self, rng):
        for _ in range(200):
            refs = make_set(rng, 30, 6, labels=rng.integers(0, 8, size=30))
            queries = make_set(rng, 10, 6, labels=rng.integers(0, 8, size=10))
            try:
                report = recall_at_k(queries, refs, GroundTruthMatcher(mode="label"), [1, 5, 10])
            except ValueError:
                continue  # no query with ground truth in this draw
            assert report.recall_at[1] <= report.recall_at[5] <= report.recall_at[10]

    def test_excluded_queries_counted(self, rng):
        refs = make_set(rng, 5, 4, labels=[0, 0, 1, 1, 2])
        queries = make_set(rng, 3, 4, labels=[0, 7, 8])
        report = recall_at_k(queries, refs, GroundTruthMatcher(mode="label"), [1])
        assert report.queries_evaluated == 1
        assert report.queries_excluded == 2

    def test_empty_query_set_rejected(self, rng):
        refs = make_set(rng, 5, 4)
        queries = DescriptorSet(np.zeros((0, 4)), [], np.zeros(0), np.zeros(0), np.zeros(0, int))
        with pytest.raises(ValueError):
            recall_at_k(queries, refs, GroundTruthMatcher(mode="label"), [1])

    def test_noiseless_synthetic_gives_perfect_recall(self):
        # with zero perturbation every aggregator maps a place's images to
        # one identical descriptor, so label-GT recall@1 is exactly 1.0
        cfg = SynthConfig(max_shift=0, gain=0.0, noise_sigma=0.0)
        db = synth_places(10, 4, shape=(5, 5, 6), perturbation=cfg, rng_seed=3)
        items = [(p.place_id, img) for p in db.places for img in p.images]
        fmaps = np.stack([img.payload for _, img in items])
        labels = np.array([pid for pid, _ in items])
        heads = [
            ("avg", None),
            ("gem", GemParams(3.0)),
            ("conv_ap", init_conv_ap(6, 4, (2, 2), rng=np.random.default_rng(0))),
        ]
        for kind, params in heads:
            batch = embed_feature_maps(kind, params, fmaps, labels)
            queries = DescriptorSet(
                batch.rows[::4], [f"q{i}" for i in range(10)],
                np.zeros(10), np.zeros(10), labels[::4],
            )
            mask = np.ones(len(labels), bool)
            mask[::4] = False
            refs = DescriptorSet(
                batch.rows[mask], [f"r{i}" for i in range(mask.sum())],
                np.zeros(mask.sum()), np.zeros(mask.sum()), labels[mask],
            )
            report = recall_at_k(queries, refs, GroundTruthMatcher(mode="label"), [1])
            assert report.recall_at[1] == 1.0


class TestBlockedRecall:
    """recall_at_k with the block budget shrunk so that the queries span several blocks."""

    def traces_by_row(self, queries, refs, match_sets, max_k):
        out = []
        for qi, matches in enumerate(match_sets):
            if not matches:
                out.append(QueryTrace(queries.ids[qi], [], None))
                continue
            top = retrieve_topk(queries.vectors[qi], refs.vectors, max_k).tolist()
            rank = next((pos for pos, r in enumerate(top, start=1) if r in matches), None)
            out.append(QueryTrace(queries.ids[qi], [refs.ids[r] for r in top], rank))
        return out

    def check(self, monkeypatch, queries, refs, gt, match_sets, ks):
        calls = []

        def counted(scores, k):
            calls.append(len(scores))
            return best_k(scores, k)

        best_k = evaluator._best_k
        monkeypatch.setattr(evaluator, "_best_k", counted)
        expected, evaluated, excluded = recall_by_hand(
            queries.vectors, refs.vectors, match_sets, ks
        )
        traces = self.traces_by_row(queries, refs, match_sets, min(max(ks), len(refs)))
        r, q = len(refs), len(queries)
        # several full blocks and a partial last one; one row per block; one block
        for budget, rows in ((5 * r, 5), (r - 1, 1), (q * r, q)):
            monkeypatch.setattr(evaluator, "BLOCK_ENTRIES", budget)
            calls.clear()
            report = recall_at_k(queries, refs, gt, ks)
            assert calls == [rows] * (q // rows) + ([q % rows] if q % rows else [])
            assert report.queries_evaluated == evaluated
            assert report.queries_excluded == excluded
            assert report.recall_at == expected
            assert report.per_query == traces

    def test_label_ground_truth(self, rng, monkeypatch):
        for _ in range(10):
            refs = make_set(rng, 20, 6, labels=rng.integers(0, 8, size=20))
            queries = make_set(rng, 23, 6, labels=rng.integers(0, 10, size=23))
            match_sets = [set(np.flatnonzero(refs.place_ids == pid).tolist())
                          for pid in queries.place_ids]
            self.check(monkeypatch, queries, refs, GroundTruthMatcher(mode="label"),
                       match_sets, [1, 3, 5])

    def test_geo_ground_truth(self, rng, monkeypatch):
        for _ in range(10):
            refs = make_set(rng, 20, 6)
            queries = make_set(rng, 23, 6)
            for ds in (refs, queries):  # scattered over about 200 m
                ds.lats[:] = 45.0 + rng.uniform(0.0, 0.002, len(ds))
                ds.lons[:] = 7.0 + rng.uniform(0.0, 0.002, len(ds))
            match_sets = [
                {j for j in range(len(refs))
                 if haversine((float(qlat), float(qlon)),
                              (float(refs.lats[j]), float(refs.lons[j]))) <= 25.0}
                for qlat, qlon in zip(queries.lats, queries.lons)
            ]
            assert any(match_sets) and not all(match_sets)
            self.check(monkeypatch, queries, refs, GroundTruthMatcher(mode="geo", radius_m=25.0),
                       match_sets, [1, 2, 10])

    def test_empty_reference_set_rejected(self, rng):
        queries = make_set(rng, 3, 4)
        refs = DescriptorSet(np.zeros((0, 4)), [], np.zeros(0), np.zeros(0), np.zeros(0, int))
        with pytest.raises(ValueError):
            recall_at_k(queries, refs, GroundTruthMatcher(mode="label"), [1])


class TestRecallReportSerialization:
    def test_kv_roundtrip_lossless(self):
        report = RecallReport(
            ks=[1, 5, 10],
            recall_at={1: 0.8421052631578947, 5: 0.9473684210526315, 10: 1.0},
            queries_evaluated=19,
            queries_excluded=1,
            label="run_a",
        )
        back = RecallReport.from_kv_lines(report.to_kv_lines())
        assert back.ks == report.ks
        for k in report.ks:
            assert back.recall_at[k] == report.recall_at[k]  # exact, repr round-trip
        assert back.label == "run_a"
        assert back.queries_evaluated == 19 and back.queries_excluded == 1

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            RecallReport(ks=[1, 5], recall_at={1: 0.9, 5: 0.5})

    @pytest.mark.parametrize("recall_at", [{1: np.nan, 5: 1.0}, {1: 0.5, 5: np.nan}])
    def test_nan_recall_rejected(self, recall_at):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            RecallReport(ks=[1, 5], recall_at=recall_at)

    def test_text_render(self):
        report = RecallReport(ks=[1, 5], recall_at={1: 0.5, 5: 0.75}, queries_evaluated=4)
        text = report.to_text()
        assert "R@1" in text and "0.5000" in text and "0.7500" in text


class TestPcaWhitening:
    def test_whitening_fixed_point(self, rng):
        x = rng.standard_normal((500, 6))
        model = pca_whiten_fit(x, 6)
        white = model.whiten(x)
        cov = white.T @ white / (len(x) - 1)
        np.testing.assert_allclose(cov, np.eye(6), atol=1e-6)

    def test_output_dimension_2048_to_512(self, rng):
        x = rng.standard_normal((520, 2048))
        model = pca_whiten_fit(x, 512)
        assert model.out_dim == 512
        assert transform_one(model, x[0]).shape == (512,)

    def test_whitened_covariance_identity_gaussian(self, rng):
        # anisotropic gaussian: whitening must still produce identity covariance
        scale = rng.uniform(0.5, 3.0, size=8)
        x = rng.standard_normal((400, 8)) * scale
        model = pca_whiten_fit(x, 8)
        white = model.whiten(x)
        cov = white.T @ white / (len(x) - 1)
        np.testing.assert_allclose(cov, np.eye(8), atol=1e-6)

    def test_axis_aligned_transform(self, rng):
        # data stretched along a known direction: mean + eigvec recovers e_1
        x = rng.standard_normal((300, 5)) * np.array([4.0, 1.0, 0.5, 0.3, 0.2])
        model = pca_whiten_fit(x, 5)
        v = model.mean + 3.0 * model.projection[0] / np.linalg.norm(model.projection[0])
        out = transform_one(model, v)
        np.testing.assert_allclose(np.abs(out), np.eye(5)[0], atol=1e-9)
        assert out[0] > 0

    def test_transform_unit_norm(self, rng):
        x = rng.standard_normal((100, 7))
        model = pca_whiten_fit(x, 4)
        for _ in range(50):
            out = transform_one(model, rng.standard_normal(7))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-6

    def test_matches_svd_oracle(self, rng):
        for _ in range(20):
            x = rng.standard_normal((60, 9)) * rng.uniform(0.2, 2.0, size=9)
            out_dim = int(rng.integers(1, 9))
            model = pca_whiten_fit(x, out_dim, epsilon=1e-9)
            np.testing.assert_allclose(
                model.whiten(x), whiten_by_svd(x, out_dim, 1e-9), atol=1e-7
            )

    def test_fit_deterministic(self, rng):
        x = rng.standard_normal((80, 6))
        a = pca_whiten_fit(x, 4)
        b = pca_whiten_fit(x, 4)
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.projection.tobytes() == b.projection.tobytes()
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()

    def test_eigenvalues_sorted_nonnegative(self, rng):
        x = rng.standard_normal((50, 6))
        model = pca_whiten_fit(x, 6)
        assert np.all(model.eigenvalues >= 0)
        assert np.all(np.diff(model.eigenvalues) <= 0)

    def test_out_dim_exceeding_rank_rejected(self, rng):
        base = rng.standard_normal((40, 2))
        x = np.hstack([base, base @ rng.standard_normal((2, 3))])  # rank 2 in 5-D
        with pytest.raises(ValueError, match="rank"):
            pca_whiten_fit(x, 4)

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ValueError):
            pca_whiten_fit(rng.standard_normal((4, 6)), 4)

    def test_dimension_mismatch_rejected(self, rng):
        model = pca_whiten_fit(rng.standard_normal((30, 5)), 3)
        with pytest.raises(ValueError):
            transform_one(model, np.zeros(6))

    def test_zero_projection_rejected(self, rng):
        model = pca_whiten_fit(rng.standard_normal((30, 5)), 3)
        with pytest.raises(ZeroNormError):
            transform_one(model, model.mean)

    @pytest.mark.parametrize("epsilon", [-1.0, -1e-300, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, rng, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            pca_whiten_fit(rng.standard_normal((30, 5)), 3, epsilon=epsilon)

    @pytest.mark.parametrize("name", ["mean", "projection", "eigenvalues"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_model_rejects_non_finite_tensors(self, rng, name, value):
        model = pca_whiten_fit(rng.standard_normal((30, 5)), 3)
        tensors = {n: getattr(model, n).copy() for n in ("mean", "projection", "eigenvalues")}
        tensors[name].flat[-1] = value
        with pytest.raises(ValueError, match=f"PCA {name} has non-finite entries"):
            PCAModel(**tensors)

    @pytest.mark.parametrize("name, shape", [("mean", (1, 3)), ("projection", (6,)),
                                             ("eigenvalues", (2, 1))])
    def test_model_rejects_tensors_of_the_wrong_rank(self, name, shape):
        tensors = {"mean": np.zeros(3), "projection": np.ones((2, 3)),
                   "eigenvalues": np.array([2.0, 1.0])}
        tensors[name] = np.ones(shape)
        with pytest.raises(ValueError, match=rf"PCA tensor '{name}' has shape .*, needs rank"):
            PCAModel(**tensors)

    def test_transform_set_keeps_metadata(self, rng):
        ds = make_set(rng, 30, 6)
        model = pca_whiten_fit(ds.vectors, 3)
        reduced = pca_transform_set(model, ds)
        assert reduced.vectors.shape == (30, 3)
        assert reduced.ids == ds.ids
        np.testing.assert_array_equal(reduced.place_ids, ds.place_ids)

    def test_transform_set_equals_stacked_rows(self, rng):
        ds = make_set(rng, 40, 9)
        model = pca_whiten_fit(rng.standard_normal((60, 9)), 5)
        reduced = pca_transform_set(model, ds).vectors
        stacked = np.stack([transform_one(model, row) for row in ds.vectors])
        np.testing.assert_allclose(reduced, stacked, rtol=1e-12, atol=1e-12)

    def test_transform_set_rejects_bad_rows(self, rng):
        model = pca_whiten_fit(rng.standard_normal((30, 5)), 3)
        with pytest.raises(ValueError):
            pca_transform_set(model, make_set(rng, 4, 6))
        ds = make_set(rng, 4, 5)
        ds.vectors[2] = model.mean
        with pytest.raises(ZeroNormError):
            pca_transform_set(model, ds)


def signs_by_column_loop(vectors, tol=1e-12):
    """The column-at-a-time sign convention that `_fix_eigenvector_signs` replaced."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        v = out[:, col]
        nz = np.nonzero(np.abs(v) > tol)[0]
        if len(nz) and v[nz[0]] < 0:
            out[:, col] = -v
    return out


class TestEigenvectorSigns:
    def test_equals_column_loop(self, rng):
        for trial in range(60):
            d = int(rng.integers(1, 12))
            v = rng.standard_normal((d, d))
            # leading entries around the threshold, zero columns, all-tiny columns
            v[: int(rng.integers(0, d + 1)), rng.integers(0, d, 3)] = rng.choice(
                [0.0, -0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-12, -2e-12])
            v[:, rng.integers(0, d)] = rng.choice([0.0, -0.0, 1e-12, -1e-12, -3e-13], size=d)
            got = evaluator._fix_eigenvector_signs(v)
            assert got.tobytes() == signs_by_column_loop(v).tobytes()  # signed zeros included


def fit_with_full_reorder(training, out_dim, epsilon=PCAModel.epsilon):
    """`pca_whiten_fit` as it was before it could center in place, reordering and sign-fixing
    every eigenvector before keeping out_dim of them."""
    x = np.asarray(training, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("training data must be 2-D")
    n, d = x.shape
    if not 1 <= out_dim <= d:
        raise ValueError(f"out_dim {out_dim} out of range for dimension {d}")
    if n <= out_dim:
        raise ValueError(f"need more than {out_dim} training samples, got {n}")
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = evaluator._fix_eigenvector_signs(eigvecs[:, order])
    rank = int(np.sum(eigvals > max(eigvals[0], 0.0) * 1e-10))
    if out_dim > rank:
        raise ValueError(f"out_dim {out_dim} exceeds training sample rank {rank}")
    top_vals = eigvals[:out_dim]
    projection = eigvecs[:, :out_dim].T / np.sqrt(top_vals + epsilon)[:, None]
    return PCAModel(mean, projection, top_vals, epsilon)


def fit_outcome(fit, x, out_dim, epsilon, **kwargs):
    """The fitted model's tensors as bytes, or the message of the ValueError the fit raised."""
    try:
        model = fit(x, out_dim, epsilon, **kwargs)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return [getattr(model, name).tobytes() for name in evaluator.PCA_TENSOR_RANKS]


def sample_rank(x):
    """The rank `pca_whiten_fit` finds for the float64 rows x (at least 2 of them)."""
    centered = x - x.mean(axis=0)
    eigvals = np.clip(np.linalg.eigvalsh(centered.T @ centered / (len(x) - 1))[::-1], 0.0, None)
    return int(np.sum(eigvals > max(eigvals[0], 0.0) * 1e-10))


# a new array of the given rows in each memory layout a caller may pass
LAYOUTS = {"C": lambda rows: np.array(rows, order="C"), "F": lambda rows: np.array(rows, order="F"),
           "strided": lambda rows: np.repeat(rows, 2, axis=0)[::2]}


@st.composite
def fit_cases(draw):
    """(training rows, out_dim, epsilon, layout): N above and at or below D, duplicate rows, low
    rank, exactly tied eigenvalues and small integers; out_dim from 0 to D + 1, or the rank."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["gaussian", "duplicates", "low rank", "tied", "integers"]))
    if kind == "tied":  # +-e_i, each m times: the covariance is a multiple of the identity
        m = draw(st.integers(1, 3))
        x = np.repeat(np.vstack([np.eye(d), -np.eye(d)]), m, axis=0) * rng.uniform(0.5, 3.0)
        x = x[rng.permutation(len(x))]
    else:
        n = draw(st.integers(1, 30))
        if kind == "gaussian":
            x = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, d)
        elif kind == "duplicates":
            k = draw(st.integers(1, 4))
            x = rng.standard_normal((k, d))[rng.integers(0, k, n)]
        elif kind == "low rank":
            r = draw(st.integers(0, d))
            x = rng.standard_normal((n, r)) @ rng.standard_normal((r, d)) + rng.standard_normal(d)
        else:  # int64 rows, which the fit converts
            x = rng.integers(-2, 3, (n, d))
    if draw(st.booleans()) and len(x) > 1:
        out_dim = sample_rank(np.asarray(x, np.float64))
    else:
        out_dim = draw(st.integers(1, d) | st.sampled_from([0, d + 1]))
    epsilon = draw(st.sampled_from([0.0, PCAModel.epsilon, 1e-3, 1.0, -1.0, np.nan]))
    return x, out_dim, epsilon, draw(st.sampled_from(sorted(LAYOUTS)))


class TestFitBytes:
    """The fit's cuts (centering in place, fixing only the kept eigenvectors) change no bit."""

    @settings(max_examples=400, deadline=None)
    @given(case=fit_cases())
    def test_equals_the_fit_with_full_reorder(self, case):
        rows, out_dim, epsilon, layout = case
        x = LAYOUTS[layout](rows)
        expected = fit_outcome(fit_with_full_reorder, x, out_dim, epsilon)
        given_bytes = x.tobytes()
        assert fit_outcome(pca_whiten_fit, x, out_dim, epsilon) == expected
        assert x.tobytes() == given_bytes  # the default leaves its argument alone

        scratch = LAYOUTS[layout](rows)
        assert fit_outcome(pca_whiten_fit, scratch, out_dim, epsilon,
                           overwrite_training=True) == expected
        if x.dtype != np.float64 or layout == "strided":  # the fit centers its own copy
            assert scratch.tobytes() == given_bytes
        elif isinstance(expected, list):  # a fitted float64 set is its centered rows, bit for bit
            assert scratch.tobytes() == (x - x.mean(axis=0)).tobytes()

    def test_rejects_a_set_that_is_not_2d(self):
        for fit in (fit_with_full_reorder, pca_whiten_fit):
            assert fit_outcome(fit, np.ones(5), 1, PCAModel.epsilon) == (
                "ValueError: training data must be 2-D")

    def test_whiten_and_transform_leave_their_arguments_alone(self, rng):
        ds = make_set(rng, 30, 6)
        model = pca_whiten_fit(rng.standard_normal((50, 6)), 4)
        before = [ds.vectors.tobytes(), ds.lats.tobytes(), ds.lons.tobytes(),
                  ds.place_ids.tobytes(), list(ds.ids)]
        tensors = [getattr(model, name).tobytes() for name in evaluator.PCA_TENSOR_RANKS]
        model.whiten(ds.vectors)
        pca_transform_set(model, ds)
        assert [ds.vectors.tobytes(), ds.lats.tobytes(), ds.lons.tobytes(),
                ds.place_ids.tobytes(), list(ds.ids)] == before
        assert [getattr(model, name).tobytes() for name in evaluator.PCA_TENSOR_RANKS] == tensors
