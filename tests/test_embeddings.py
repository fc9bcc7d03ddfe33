import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unit_rows
from vprkit.embeddings import (
    UNIT_TOL,
    EmbeddingBatch,
    l2_normalize,
    normalize_rows,
    rows_are_unit,
    similarity_matrix,
)
from vprkit.errors import ZeroNormError


class TestL2Normalize:
    def test_three_four_five_triangle(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_idempotent(self, rng):
        v = l2_normalize(rng.standard_normal(12))
        np.testing.assert_allclose(l2_normalize(v), v, atol=1e-12)

    def test_scale_invariance(self, rng):
        for _ in range(200):
            v = rng.standard_normal(6)
            lam = float(rng.uniform(1e-3, 1e3))
            np.testing.assert_allclose(
                l2_normalize(lam * v), l2_normalize(v), atol=1e-9
            )

    @settings(max_examples=200, deadline=None)
    @given(lam=st.floats(1e-3, 1e3, allow_nan=False))
    def test_scale_invariance_hypothesis(self, lam):
        v = np.array([0.3, -1.7, 2.2, 0.01])
        np.testing.assert_allclose(l2_normalize(lam * v), l2_normalize(v), atol=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroNormError):
            l2_normalize(np.zeros(4))

    def test_near_zero_rejected(self):
        with pytest.raises(ZeroNormError):
            l2_normalize(np.full(4, 1e-14))


class TestSimilarityMatrix:
    def test_identical_rows_all_ones(self):
        row = l2_normalize(np.array([1.0, 2.0, 2.0]))
        batch = EmbeddingBatch(np.tile(row, (4, 1)), np.arange(4))
        np.testing.assert_allclose(similarity_matrix(batch), np.ones((4, 4)), atol=1e-12)

    def test_orthonormal_rows(self):
        batch = EmbeddingBatch(np.eye(3)[:2], np.array([0, 1]))
        s = similarity_matrix(batch)
        assert s[0, 1] == 0.0 and s[1, 0] == 0.0

    def test_hand_dot_product(self):
        rows = np.array([[1.0, 0.0], [0.6, 0.8]])
        s = similarity_matrix(EmbeddingBatch(rows, np.array([0, 1])))
        assert s[0, 1] == pytest.approx(0.6, abs=1e-12)

    def test_unnormalized_input_rejected(self):
        batch = EmbeddingBatch(np.eye(2), np.array([0, 1]))
        batch.rows = np.array([[1.0, 1.0], [0.0, 1.0]])  # past the constructor's check
        with pytest.raises(ValueError, match="requires unit-norm rows"):
            similarity_matrix(batch)

    def test_invariants_on_random_batches(self, rng):
        for _ in range(200):
            n, d = int(rng.integers(2, 12)), int(rng.integers(2, 16))
            batch = EmbeddingBatch(random_unit_rows(rng, n, d), np.arange(n))
            s = similarity_matrix(batch)
            np.testing.assert_allclose(s, s.T, rtol=0, atol=UNIT_TOL)
            np.testing.assert_allclose(np.diag(s), 1.0, rtol=0, atol=UNIT_TOL)
            assert np.all(np.abs(s) <= 1.0 + UNIT_TOL)

    def test_permutation_equivariance(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 10))
            rows = random_unit_rows(rng, n, 7)
            s = similarity_matrix(EmbeddingBatch(rows, np.arange(n)))
            perm = rng.permutation(n)
            sp = similarity_matrix(EmbeddingBatch(rows[perm], np.arange(n)))
            np.testing.assert_allclose(sp, s[np.ix_(perm, perm)], atol=1e-12)

    def test_rescaling_before_normalization_is_invisible(self, rng):
        raw = rng.standard_normal((5, 6))
        scales = rng.uniform(0.1, 10.0, size=5)
        a = similarity_matrix(EmbeddingBatch.from_raw(raw, np.arange(5)))
        b = similarity_matrix(EmbeddingBatch.from_raw(raw * scales[:, None], np.arange(5)))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_entrywise_dot_products(self, rng):
        rows = random_unit_rows(rng, 9, 11)
        s = similarity_matrix(EmbeddingBatch(rows, np.arange(9)))
        for i in range(9):
            for j in range(9):
                assert abs(s[i, j] - float(np.dot(rows[i], rows[j]))) < 1e-12


class TestEmbeddingBatch:
    def test_misaligned_labels_rejected(self, rng):
        with pytest.raises(ValueError):
            EmbeddingBatch(random_unit_rows(rng, 4, 3), np.arange(5))

    def test_normalized_flag_enforced(self):
        with pytest.raises(ValueError):
            EmbeddingBatch(np.ones((2, 3)), np.arange(2))

    def test_from_raw_normalizes(self, rng):
        batch = EmbeddingBatch.from_raw(rng.standard_normal((6, 4)) * 10, np.arange(6))
        np.testing.assert_allclose(np.linalg.norm(batch.rows, axis=1), 1.0, atol=1e-12)

    def test_normalize_rows_zero_row_rejected(self):
        m = np.ones((3, 4))
        m[1] = 0.0
        with pytest.raises(ZeroNormError, match="row 1"):
            normalize_rows(m)


class TestRowsAreUnit:
    @staticmethod
    def by_linalg_norm(m):
        return bool(np.all(np.abs(np.linalg.norm(m, axis=1) - 1.0) <= UNIT_TOL))

    def test_agrees_with_linalg_norm(self, rng):
        unit = random_unit_rows(rng, 5, 16)
        rows = [unit[0]] + [u * s for u, s in zip(unit[1:], (1 + 0.5e-6, 1 - 0.5e-6, 1 + 2e-6,
                                                              1 - 2e-6))]
        rows += [np.zeros(16), np.full(16, np.nan), np.where(np.arange(16) == 3, np.inf, 0.0),
                 np.where(np.arange(16) == 5, -np.inf, unit[0])]
        expected = [True, True, True, False, False, False, False, False, False]
        for row, unit_norm in zip(rows, expected):
            assert self.by_linalg_norm(row[None]) == unit_norm
            assert rows_are_unit(row[None]) == unit_norm
        m = np.array(rows)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows) + 1):
                assert rows_are_unit(m[i:j]) == self.by_linalg_norm(m[i:j])

    def test_empty_set_is_unit(self):
        empty = np.zeros((0, 8))
        assert rows_are_unit(empty) and self.by_linalg_norm(empty)
