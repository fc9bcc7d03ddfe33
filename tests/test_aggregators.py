import numpy as np
import pytest

from oracles import numeric_gradient, relative_error
from vprkit import aggregators
from vprkit.aggregators import (
    ConvAPParams,
    GemParams,
    adaptive_avg_pool,
    avg_pool,
    conv1x1_forward,
    conv_ap_backward,
    conv_ap_forward,
    gem_pool,
    gem_pool_backward,
    init_conv_ap,
)
from vprkit.embeddings import l2_normalize, normalize_rows, unit_rows


class TestConv1x1:
    def test_identity_kernel(self, rng):
        fmap = rng.standard_normal((4, 5, 3))
        params = ConvAPParams(np.eye(3), np.zeros(3), grid=(1, 1))
        np.testing.assert_array_equal(conv1x1_forward(fmap, params), fmap)

    def test_hand_dot_product(self):
        fmap = np.empty((2, 3, 2))
        fmap[..., 0] = 3.0
        fmap[..., 1] = 5.0
        params = ConvAPParams(np.array([[1.0, 1.0]]), np.zeros(1), grid=(1, 1))
        np.testing.assert_allclose(conv1x1_forward(fmap, params), 8.0, atol=1e-15)

    def test_shape_contract(self, rng):
        fmap = rng.standard_normal((6, 4, 5))
        params = ConvAPParams(rng.standard_normal((7, 5)), rng.standard_normal(7))
        assert conv1x1_forward(fmap, params).shape == (6, 4, 7)

    def test_depth_mismatch_rejected(self, rng):
        params = ConvAPParams(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            conv1x1_forward(rng.standard_normal((4, 4, 5)), params)


class TestAdaptiveAvgPool:
    def test_two_by_two_to_scalar(self):
        fmap = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
        np.testing.assert_allclose(adaptive_avg_pool(fmap, 1, 1), 2.5, atol=1e-15)

    def test_full_grid_is_identity(self, rng):
        fmap = rng.standard_normal((5, 3, 4))
        np.testing.assert_array_equal(adaptive_avg_pool(fmap, 5, 3), fmap)

    def test_single_bin_is_global_average(self, rng):
        for _ in range(200):
            fmap = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8)), 3))
            np.testing.assert_allclose(
                adaptive_avg_pool(fmap, 1, 1)[0, 0],
                fmap.mean(axis=(0, 1)),
                atol=1e-12,
            )

    def test_oversized_grid_rejected(self, rng):
        with pytest.raises(ValueError):
            adaptive_avg_pool(rng.standard_normal((2, 2, 1)), 3, 1)

    def test_global_mean_preserved_weighted_by_bin_sizes(self, rng):
        # holds for divisible and non-divisible grids because bins partition
        for _ in range(200):
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            rows = int(rng.integers(1, h + 1))
            cols = int(rng.integers(1, w + 1))
            fmap = rng.standard_normal((h, w, 2))
            pooled = adaptive_avg_pool(fmap, rows, cols)
            re = [(i * h) // rows for i in range(rows + 1)]
            ce = [(j * w) // cols for j in range(cols + 1)]
            total = np.zeros(2)
            weight = 0
            for i in range(rows):
                for j in range(cols):
                    size = (re[i + 1] - re[i]) * (ce[j + 1] - ce[j])
                    assert size >= 1
                    total += pooled[i, j] * size
                    weight += size
            assert weight == h * w
            np.testing.assert_allclose(total / weight, fmap.mean(axis=(0, 1)), atol=1e-12)


class TestConvApForward:
    def test_descriptor_dimension(self, rng):
        fmap = rng.standard_normal((3, 3, 8))
        params = ConvAPParams(rng.standard_normal((512, 8)), np.zeros(512), grid=(2, 2))
        desc = conv_ap_forward(fmap, params)
        assert desc.shape == (2048,)
        assert params.descriptor_dim == 2048

    def test_unit_norm_contract(self, rng):
        for _ in range(200):
            fmap = rng.standard_normal((4, 5, 3))
            params = init_conv_ap(3, 6, grid=(2, 2), rng=rng)
            desc = conv_ap_forward(fmap, params)
            assert abs(np.linalg.norm(desc) - 1.0) < 1e-6

    def test_constant_map_identity_kernel(self):
        channel = np.array([1.0, 2.0, 2.0])
        fmap = np.tile(channel, (4, 4, 1))
        params = ConvAPParams(np.eye(3), np.zeros(3), grid=(1, 1))
        np.testing.assert_allclose(
            conv_ap_forward(fmap, params), l2_normalize(channel), atol=1e-12
        )

    def test_flatten_order_stable(self, rng):
        fmap = rng.standard_normal((5, 5, 4))
        params = init_conv_ap(4, 3, grid=(2, 3), rng=rng)
        a = conv_ap_forward(fmap, params)
        b = conv_ap_forward(fmap, params)
        assert a.tobytes() == b.tobytes()

    def test_flatten_order_spatial_then_channel(self, rng):
        # channels vary fastest: descriptor[(i*cols + j)*d + ch] == pooled[i, j, ch]
        fmap = rng.standard_normal((4, 4, 2))
        params = ConvAPParams(np.eye(2), None, grid=(2, 2))
        pooled = adaptive_avg_pool(conv1x1_forward(fmap, params), 2, 2)
        desc = conv_ap_forward(fmap, params)
        flat = pooled.ravel()
        np.testing.assert_allclose(desc, flat / np.linalg.norm(flat), atol=1e-12)

    def test_special_case_equals_avg_pool_bitwise(self, rng):
        for _ in range(100):
            fmap = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7)), 4))
            params = ConvAPParams(np.eye(4), np.zeros(4), grid=(1, 1))
            assert conv_ap_forward(fmap, params).tobytes() == avg_pool(fmap).tobytes()


class TestConvApBackward:
    def _random_case(self, rng, use_bias=True):
        h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        c, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        rows = int(rng.integers(1, h + 1))
        cols = int(rng.integers(1, w + 1))
        fmap = rng.standard_normal((h, w, c))
        params = ConvAPParams(
            rng.standard_normal((d, c)),
            rng.standard_normal(d) if use_bias else None,
            grid=(rows, cols),
        )
        upstream = rng.standard_normal(params.descriptor_dim)
        return fmap, params, upstream

    def test_zero_upstream_gives_zero_grads(self, rng):
        fmap, params, _ = self._random_case(rng)
        grads = conv_ap_backward(fmap, params, np.zeros(params.descriptor_dim))
        assert np.all(grads.d_weight == 0.0)
        assert np.all(grads.d_bias == 0.0)
        assert np.all(grads.d_features == 0.0)

    def test_weight_gradient_matches_fd(self, rng):
        for _ in range(20):
            fmap, params, upstream = self._random_case(rng)
            grads = conv_ap_backward(fmap, params, upstream)

            def f(w):
                p = ConvAPParams(w, params.bias, params.grid)
                return float(upstream @ conv_ap_forward(fmap, p))

            fd = numeric_gradient(f, params.weight.copy())
            assert relative_error(grads.d_weight, fd) < 1e-4

    def test_bias_gradient_matches_fd(self, rng):
        for _ in range(20):
            fmap, params, upstream = self._random_case(rng)
            grads = conv_ap_backward(fmap, params, upstream)

            def f(b):
                p = ConvAPParams(params.weight, b, params.grid)
                return float(upstream @ conv_ap_forward(fmap, p))

            fd = numeric_gradient(f, params.bias.copy())
            assert relative_error(grads.d_bias, fd) < 1e-4

    def test_feature_gradient_matches_fd(self, rng):
        for _ in range(20):
            fmap, params, upstream = self._random_case(rng)
            grads = conv_ap_backward(fmap, params, upstream)

            def f(x):
                return float(upstream @ conv_ap_forward(x, params))

            fd = numeric_gradient(f, fmap.copy())
            assert relative_error(grads.d_features, fd) < 1e-4

    def test_no_bias_case(self, rng):
        fmap, params, upstream = self._random_case(rng, use_bias=False)
        grads = conv_ap_backward(fmap, params, upstream)
        assert grads.d_bias is None

        def f(w):
            p = ConvAPParams(w, None, params.grid)
            return float(upstream @ conv_ap_forward(fmap, p))

        assert relative_error(grads.d_weight, numeric_gradient(f, params.weight.copy())) < 1e-4

    def test_feature_gradient_is_normalization_jacobian_for_identity_head(self, rng):
        # 1x1 spatial map, identity kernel, 1x1 grid: z = f/||f||, so the
        # gradient is exactly (u - z (z.u)) / ||f||.
        f = rng.standard_normal(2)
        fmap = f[None, None, :]
        params = ConvAPParams(np.eye(2), np.zeros(2), grid=(1, 1))
        upstream = rng.standard_normal(2)
        grads = conv_ap_backward(fmap, params, upstream)
        norm = np.linalg.norm(f)
        z = f / norm
        expected = (upstream - z * float(z @ upstream)) / norm
        np.testing.assert_allclose(grads.d_features[0, 0], expected, atol=1e-12)

    def test_upstream_shape_mismatch_rejected(self, rng):
        fmap, params, _ = self._random_case(rng)
        with pytest.raises(ValueError):
            conv_ap_backward(fmap, params, np.zeros(params.descriptor_dim + 1))


class TestAvgPool:
    def test_constant_map(self):
        channel = np.array([2.0, 1.0])
        fmap = np.tile(channel, (3, 3, 1))
        np.testing.assert_allclose(avg_pool(fmap), l2_normalize(channel), atol=1e-12)

    def test_channel_means_by_hand(self):
        fmap = np.zeros((2, 2, 2))
        fmap[..., 0] = np.array([[1.0, 2.0], [3.0, 4.0]])
        fmap[..., 1] = 5.0
        np.testing.assert_allclose(fmap.mean(axis=(0, 1)), [2.5, 5.0], atol=1e-15)
        np.testing.assert_allclose(avg_pool(fmap), l2_normalize([2.5, 5.0]), atol=1e-12)


class TestGemPool:
    def test_p_one_equals_avg_pool(self, rng):
        fmap = rng.uniform(0.0, 3.0, size=(4, 5, 3))
        np.testing.assert_allclose(
            gem_pool(fmap, GemParams(1.0)), avg_pool(fmap), atol=1e-12
        )

    def test_hand_value_p3(self):
        # channel A holds {1, 2}, channel B is constant 1, so the normalized
        # ratio recovers the raw generalized mean of channel A
        fmap = np.zeros((1, 2, 2))
        fmap[0, :, 0] = [1.0, 2.0]
        fmap[0, :, 1] = 1.0
        desc = gem_pool(fmap, GemParams(3.0))
        assert desc[0] / desc[1] == pytest.approx(4.5 ** (1.0 / 3.0), abs=1e-9)
        assert desc[0] / desc[1] == pytest.approx(1.6510, abs=1e-4)

    def test_large_p_approaches_max(self):
        fmap = np.zeros((1, 2, 2))
        fmap[0, :, 0] = [1.0, 2.0]
        fmap[0, :, 1] = 1.0
        desc = gem_pool(fmap, GemParams(64.0))
        assert abs(desc[0] / desc[1] - 2.0) < 0.05

    def test_negative_entries_clamped(self, rng):
        fmap = rng.standard_normal((3, 3, 2))
        clamped = np.maximum(fmap, 0.0)
        np.testing.assert_allclose(
            gem_pool(fmap, GemParams(3.0)), gem_pool(clamped, GemParams(3.0)), atol=1e-12
        )

    def test_power_gradient_matches_fd(self, rng):
        for _ in range(20):
            fmap = rng.uniform(0.05, 2.0, size=(4, 4, 3))
            p = float(rng.uniform(0.5, 6.0))
            upstream = rng.standard_normal(3)
            analytic = gem_pool_backward(fmap, GemParams(p), upstream)

            def f(pv):
                return float(upstream @ gem_pool(fmap, GemParams(float(pv[0]))))

            fd = numeric_gradient(f, np.array([p]))
            assert relative_error(np.array([analytic]), fd) < 1e-4

    def test_power_gradient_with_zero_entries(self, rng):
        # clamped zeros must not poison the log terms
        fmap = rng.uniform(0.05, 2.0, size=(3, 3, 2))
        fmap[0, 0, 0] = 0.0
        fmap[1, 2, 1] = 0.0
        p = 2.5
        upstream = rng.standard_normal(2)
        analytic = gem_pool_backward(fmap, GemParams(p), upstream)

        def f(pv):
            return float(upstream @ gem_pool(fmap, GemParams(float(pv[0]))))

        fd = numeric_gradient(f, np.array([p]))
        assert relative_error(np.array([analytic]), fd) < 1e-4

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            GemParams(0.0)


class TestBatchedHead:
    """The batched, pool-first head against the single-map and project-first paths."""

    def _conv_ap_case(self, rng, use_bias):
        h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        c, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        grid = (int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1)))
        params = ConvAPParams(
            rng.standard_normal((d, c)), rng.standard_normal(d) if use_bias else None, grid
        )
        return (h, w, c), params

    @pytest.mark.parametrize("use_bias", [True, False])
    def test_pool_first_equals_project_first(self, rng, use_bias):
        for _ in range(200):
            shape, params = self._conv_ap_case(rng, use_bias)
            fmap = rng.standard_normal(shape)
            reference = l2_normalize(
                adaptive_avg_pool(conv1x1_forward(fmap, params), *params.grid).ravel()
            )
            np.testing.assert_allclose(conv_ap_forward(fmap, params), reference, atol=1e-12)

    def _batch_cases(self, rng):
        """(kind, params, fmaps, per-map forward) for each head kind."""
        shape, params = self._conv_ap_case(rng, use_bias=True)
        n = int(rng.integers(1, 7))
        fmaps = rng.standard_normal((n, *shape))
        positive = rng.uniform(0.05, 2.0, size=(n, *shape))
        gem = GemParams(float(rng.uniform(0.5, 6.0)))
        return [
            ("conv_ap", params, fmaps, lambda fm: conv_ap_forward(fm, params)),
            ("gem", gem, positive, lambda fm: gem_pool(fm, gem)),
            ("avg", None, fmaps, avg_pool),
        ]

    def test_forward_batch_equals_per_map_rows(self, rng):
        for _ in range(50):
            for kind, params, fmaps, single in self._batch_cases(rng):
                rows = aggregators.forward(kind, params, fmaps)
                assert rows.shape[0] == len(fmaps)
                for fm, row in zip(fmaps, rows):
                    np.testing.assert_allclose(row, single(fm), atol=1e-12)

    def test_backward_batch_equals_sum_of_per_map_gradients(self, rng):
        for _ in range(50):
            for kind, params, fmaps, single in self._batch_cases(rng):
                upstream = rng.standard_normal((len(fmaps), len(single(fmaps[0]))))
                grads = aggregators.backward(kind, params, fmaps, upstream)
                if kind == "conv_ap":
                    per_map = [conv_ap_backward(fm, params, u) for fm, u in zip(fmaps, upstream)]
                    expected = {
                        "weight": sum(g.d_weight for g in per_map),
                        "bias": sum(g.d_bias for g in per_map),
                    }
                elif kind == "gem":
                    total = sum(gem_pool_backward(fm, params, u) for fm, u in zip(fmaps, upstream))
                    expected = {"power": np.array([total])}
                else:
                    expected = {}
                assert grads.keys() == expected.keys()
                for name in expected:
                    np.testing.assert_allclose(grads[name], expected[name], atol=1e-12)

    def test_backward_upstream_shape_mismatch_rejected(self, rng):
        shape, params = self._conv_ap_case(rng, use_bias=True)
        fmaps = rng.standard_normal((3, *shape))
        with pytest.raises(ValueError):
            aggregators.backward("conv_ap", params, fmaps, np.zeros((2, params.descriptor_dim)))

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown aggregator"):
            aggregators.forward("netvlad", None, rng.standard_normal((2, 3, 3, 4)))


def _project(params, x):
    out = x.reshape(-1, params.in_channels) @ params.weight.T
    if params.bias is not None:
        out += params.bias
    return out.reshape(x.shape[:-1] + (params.out_channels,))


def _normalize_backward(raw, upstream):
    """d / d raw rows, normalizing the raw rows again."""
    unit = normalize_rows(raw)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    radial = np.sum(unit * upstream, axis=1, keepdims=True)
    return (upstream - unit * radial) / norms


def normalizing_forward(kind, params, pooled):
    """Unit rows from the stage output, each head normalizing its own rows."""
    if kind == "conv_ap":
        return normalize_rows(_project(params, pooled).reshape(len(pooled), -1))
    if kind == "gem":
        return normalize_rows(np.mean(pooled**params.power, axis=(1, 2)) ** (1.0 / params.power))
    return normalize_rows(pooled.reshape(len(pooled), -1))


def reprojecting_backward(kind, params, pooled, upstream):
    """Parameter gradients from the stage output, each head recomputing its raw
    rows (Conv-AP re-projects the pooled cells) and normalizing them again."""
    if kind == "conv_ap":
        cells = _project(params, pooled)
        g_flat = _normalize_backward(cells.reshape(len(pooled), -1), upstream)
        g_flat = g_flat.reshape(-1, params.out_channels)
        grads = {"weight": g_flat.T @ pooled.reshape(-1, params.in_channels)}
        if params.bias is not None:
            grads["bias"] = g_flat.sum(axis=0)
        return grads
    if kind == "gem":
        p = params.power
        u = np.mean(pooled**p, axis=(1, 2))
        m = u ** (1.0 / p)
        with np.errstate(divide="ignore", invalid="ignore"):
            xlog = np.where(pooled > 0.0,
                            pooled**p * np.log(np.where(pooled > 0.0, pooled, 1.0)), 0.0)
        du_dp = np.mean(xlog, axis=(1, 2))
        dm_dp = np.zeros_like(m)
        pos = u > 0.0
        dm_dp[pos] = m[pos] * (-np.log(u[pos]) / p**2 + du_dp[pos] / (u[pos] * p))
        return {"power": np.array([np.sum(_normalize_backward(m, upstream) * dm_dp)])}
    return {}


class TestRawRowHeads:
    """Heads stop before the L2 normalization; composing them with one shared
    normalization gives the bytes of heads that normalize (and, in backward,
    re-project and re-normalize) on their own."""

    def _cases(self, rng):
        h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        c, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        n = int(rng.integers(1, 9))
        grid = (int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1)))
        fmaps = rng.standard_normal((n, h, w, c))
        with_zeros = np.where(rng.uniform(size=fmaps.shape) < 0.3, 0.0, np.abs(fmaps))
        with_zeros[:, 0, 0, -1] = 1.0  # a nonzero GeM row, whose other channels may be all 0
        for use_bias in (True, False):
            bias = rng.standard_normal(d) if use_bias else None
            yield "conv_ap", ConvAPParams(rng.standard_normal((d, c)), bias, grid), fmaps
        yield "gem", GemParams(float(rng.uniform(0.5, 6.0))), np.abs(fmaps)
        yield "gem", GemParams(float(rng.uniform(0.5, 6.0))), with_zeros
        yield "avg", None, fmaps

    def test_raw_forward_then_normalize_equals_normalizing_head(self, rng):
        for _ in range(100):
            for kind, params, fmaps in self._cases(rng):
                pooled = aggregators.pool(kind, params, fmaps)
                expected = normalizing_forward(kind, params, pooled).tobytes()
                raw = aggregators.HEADS[kind].forward(params, pooled)
                assert normalize_rows(raw).tobytes() == expected
                assert aggregators.forward(kind, params, fmaps).tobytes() == expected

    def test_backward_equals_reprojecting_backward(self, rng):
        for _ in range(100):
            for kind, params, fmaps in self._cases(rng):
                pooled = aggregators.pool(kind, params, fmaps)
                dim = normalizing_forward(kind, params, pooled).shape[1]
                upstream = rng.standard_normal((len(fmaps), dim))
                grads = aggregators.backward(kind, params, fmaps, upstream)
                expected = reprojecting_backward(kind, params, pooled, upstream)
                assert grads.keys() == expected.keys()
                for name in expected:
                    assert grads[name].tobytes() == expected[name].tobytes()

    def test_unit_rows_and_norms_feed_normalize_backward(self, rng):
        raw = rng.standard_normal((5, 7))
        upstream = rng.standard_normal((5, 7))
        unit, norms = unit_rows(raw)
        assert unit.tobytes() == normalize_rows(raw).tobytes()
        assert norms.tobytes() == np.linalg.norm(raw, axis=1, keepdims=True).tobytes()
        g_raw = aggregators.normalize_backward(unit, norms, upstream)
        assert g_raw.tobytes() == _normalize_backward(raw, upstream).tobytes()
        with pytest.raises(ValueError):
            aggregators.normalize_backward(unit, norms, upstream[:, :6])
