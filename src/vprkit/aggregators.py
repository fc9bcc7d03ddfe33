"""Feature-map aggregation heads: Conv-AP, AVG, GeM, on whole batches.

Every head maps an (N, h, w, c) batch of feature maps to (N, D) raw rows,
and `forward` returns them normalized by `embeddings.unit_rows`. Conv-AP
is a 1x1 convolution followed by adaptive average pooling onto a
(rows, cols) grid; both are affine, so the head pools first and projects
only the pooled cells, which equals project-then-pool. AVG is the 1x1-grid
pooling path, so the identity-kernel 1x1-grid Conv-AP head equals it bit
for bit.

Each head is a parameter-free stage (`Head.pool`: Conv-AP pools to its
grid, AVG to 1x1, GeM clamps at zero since its exponent is trained)
followed by the trainable part, whose forward and backward take the
stage's output. Conv-AP's pooling and its backward share one partition
of the map into cells (`_cells`). The trainable part stops before the L2
normalization: its forward returns the raw rows and its backward takes
the gradient with respect to them, so a caller normalizes once and
`embeddings.normalize_backward` reuses the unit rows and norms. The
backbone is frozen, so training runs the stage once per database and each
step only gathers rows of its output. The head kind is resolved only
through `HEADS`; single-map functions are batch-of-one calls into the
same code. Analytic backward passes return parameter gradients summed
over the batch, checked against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embeddings import first_nonfinite_row, normalize_backward, unit_rows
from .errors import FeatureMapError

GEM_MIN_POWER = 1e-3


@dataclass
class ConvAPParams:
    """Channel projection plus pooling grid.

    weight: (d, c) kernel of the 1x1 convolution; bias: (d,) or None;
    grid: (rows, cols) of the adaptive average pooling output.
    """

    weight: np.ndarray
    bias: np.ndarray | None = None
    grid: tuple[int, int] = (2, 2)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 2 or self.weight.shape[0] < 1:
            raise ValueError(f"weight must be (d, c), got {self.weight.shape}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.weight.shape[0],):
                raise ValueError("bias shape must match output depth")
        rows, cols = self.grid
        if rows < 1 or cols < 1:
            raise ValueError(f"invalid pooling grid {self.grid}")

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def descriptor_dim(self) -> int:
        return self.grid[0] * self.grid[1] * self.out_channels


@dataclass
class GemParams:
    """Generalized-mean pooling exponent (trainable scalar)."""

    power: float = 3.0

    def __post_init__(self):
        self.power = float(self.power)  # an integer exponent too: its array is float64
        if not np.isfinite(self.power) or self.power < GEM_MIN_POWER:
            raise ValueError(f"power must be finite and >= {GEM_MIN_POWER}")


def _check_maps(fmaps: np.ndarray) -> np.ndarray:
    """An (N, h, w, c) batch as the stage takes it, C-ordered (so the stage sums in one
    order whatever the store's layout); FeatureMapError names the first map with a NaN or
    infinite entry.

    The one dtype rule of the stage: float32 maps (a payload store's dtype)
    of more than one channel stay float32, and the stage accumulates them in
    float64 entry by entry, in the order and to the bits of their widening.
    Any other maps are widened to float64, exactly (a signalling NaN becomes
    a quiet one). One-channel cells are contiguous runs that numpy sums
    pairwise, and a run it converts while summing is split at its buffer
    size, so those maps are widened first.
    """
    fmaps = np.asarray(fmaps)
    if fmaps.ndim != 4:
        raise ValueError(f"feature maps must be (N, h, w, c), got shape {fmaps.shape}")
    as_stored = fmaps.dtype == np.float32 and fmaps.shape[3] > 1
    with np.errstate(invalid="ignore"):
        fmaps = fmaps.astype(np.float32 if as_stored else np.float64, order="C", copy=False)
    row = first_nonfinite_row(fmaps)
    if row is not None:
        raise FeatureMapError(row, "feature map entries must be finite")
    return fmaps


def _one_map(fmap: np.ndarray) -> np.ndarray:
    """A single (h, w, c) map as a checked batch of one."""
    return _check_maps(np.asarray(fmap)[None])


def _project(params: ConvAPParams, x: np.ndarray) -> np.ndarray:
    """The 1x1 convolution W @ x + bias over the last axis of x."""
    if x.shape[-1] != params.in_channels:
        raise ValueError(
            f"feature depth {x.shape[-1]} != kernel input depth {params.in_channels}"
        )
    out = x.reshape(-1, params.in_channels) @ params.weight.T
    if params.bias is not None:
        out += params.bias
    return out.reshape(x.shape[:-1] + (params.out_channels,))


def conv1x1_forward(fmap: np.ndarray, params: ConvAPParams) -> np.ndarray:
    """Project every spatial descriptor: out[i, j] = W @ fmap[i, j] + bias.

    Conv-AP itself never projects the full map; this is the project-first
    reference the pooled-first head is compared against.
    """
    return _project(params, _one_map(fmap)[0])


def _cells(h: int, w: int, rows: int, cols: int) -> list[tuple[int, int, slice, slice]]:
    """(i, j, ys, xs) of each cell of a (rows x cols) partition of an h x w extent, row-major.

    Along each axis the cells are contiguous, non-overlapping runs whose
    sizes differ by at most one, so none is empty.
    """
    if not (1 <= rows <= h and 1 <= cols <= w):
        raise ValueError(f"grid ({rows}, {cols}) larger than spatial dims ({h}, {w})")
    re = [(i * h) // rows for i in range(rows + 1)]
    ce = [(j * w) // cols for j in range(cols + 1)]
    return [(i, j, slice(re[i], re[i + 1]), slice(ce[j], ce[j + 1]))
            for i in range(rows) for j in range(cols)]


def _pool(fmaps: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Average (N, h, w, c) maps over their `_cells` in float64: (N, rows, cols, c)."""
    n, h, w, c = fmaps.shape
    out = np.empty((n, rows, cols, c))
    for i, j, ys, xs in _cells(h, w, rows, cols):
        # into a new array: reducing into the strided `out[:, i, j]` buffers it and raised peak RSS
        total = np.add.reduce(fmaps[:, ys, xs], axis=(1, 2), dtype=np.float64)
        out[:, i, j] = total / ((ys.stop - ys.start) * (xs.stop - xs.start))
    return out


def adaptive_avg_pool(fmap: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Average the map over an (rows x cols) partition of its spatial extent."""
    return _pool(_one_map(fmap), rows, cols)[0]


def _conv_ap_forward(params: ConvAPParams, pooled: np.ndarray) -> np.ndarray:
    # Flatten order: row-major over the pooling grid, channels fastest.
    return _project(params, pooled).reshape(len(pooled), -1)


def _conv_ap_backward(params: ConvAPParams, pooled: np.ndarray, g_raw: np.ndarray):
    """Parameter gradients summed over the batch, from d / d raw rows."""
    g_cells = g_raw.reshape(-1, params.out_channels)
    grads = {"weight": g_cells.T @ pooled.reshape(-1, params.in_channels)}
    if params.bias is not None:
        grads["bias"] = g_cells.sum(axis=0)
    return grads


def conv_ap_forward(fmap: np.ndarray, params: ConvAPParams) -> np.ndarray:
    """Full head on one map: pool, project, flatten, L2-normalize.

    Output dimension is rows*cols*d. Flatten order is row-major over the
    pooling grid with channels fastest, and is stable across calls.
    """
    return forward("conv_ap", params, np.asarray(fmap)[None])[0]


@dataclass
class ConvApGradients:
    d_weight: np.ndarray
    d_bias: np.ndarray | None
    d_features: np.ndarray


def conv_ap_backward(
    fmap: np.ndarray, params: ConvAPParams, upstream: np.ndarray
) -> ConvApGradients:
    """Gradients of <upstream, conv_ap_forward(fmap)> w.r.t. weight, bias, fmap."""
    pooled = _pool(_one_map(fmap), *params.grid)
    g_raw = normalize_backward(*unit_rows(_conv_ap_forward(params, pooled)),
                               np.reshape(upstream, (1, -1)))
    grads = _conv_ap_backward(params, pooled, g_raw)

    # Through pooling: each input cell feeds exactly one bin, scaled by 1/bin size.
    g_pooled = g_raw.reshape(*params.grid, params.out_channels) @ params.weight
    h, w = np.shape(fmap)[:2]
    g_features = np.empty((h, w, params.in_channels))
    for i, j, ys, xs in _cells(h, w, *params.grid):
        g_features[ys, xs] = g_pooled[i, j] / ((ys.stop - ys.start) * (xs.stop - xs.start))
    return ConvApGradients(grads["weight"], grads.get("bias"), g_features)


def avg_pool(fmap: np.ndarray) -> np.ndarray:
    """Per-channel spatial mean, L2-normalized."""
    return forward("avg", None, np.asarray(fmap)[None])[0]


def _gem_forward(params: GemParams, x: np.ndarray) -> np.ndarray:
    """GeM on maps already clamped at zero by its stage."""
    u = np.mean(x**params.power, axis=(1, 2))
    return u ** (1.0 / params.power)


def _gem_backward(params: GemParams, x: np.ndarray, g_m: np.ndarray):
    p = params.power
    u = np.mean(x**p, axis=(1, 2))
    m = u ** (1.0 / p)

    # du/dp has x^p * log(x) terms; the x = 0 limit is 0 for p > 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        xlog = np.where(x > 0.0, x**p * np.log(np.where(x > 0.0, x, 1.0)), 0.0)
    du_dp = np.mean(xlog, axis=(1, 2))
    dm_dp = np.zeros_like(m)
    pos = u > 0.0
    dm_dp[pos] = m[pos] * (-np.log(u[pos]) / p**2 + du_dp[pos] / (u[pos] * p))
    return {"power": np.array([np.sum(g_m * dm_dp)])}


def gem_pool(fmap: np.ndarray, params: GemParams) -> np.ndarray:
    """Generalized-mean pooling: per channel, (mean of x^p)^(1/p), normalized.

    Entries are clamped at zero first; p = 1 reduces to plain average
    pooling, large p approaches per-channel max pooling.
    """
    return forward("gem", params, np.asarray(fmap)[None])[0]


def gem_pool_backward(fmap: np.ndarray, params: GemParams, upstream: np.ndarray) -> float:
    """d<upstream, gem_pool(fmap)> / d power."""
    grads = backward("gem", params, np.asarray(fmap)[None], np.reshape(upstream, (1, -1)))
    return float(grads["power"][0])


# ---------------------------------------------------------------------------
# The head table: the only place the aggregator kind is decided
# ---------------------------------------------------------------------------

def init_conv_ap(
    in_channels: int,
    out_channels: int,
    grid: tuple[int, int] = ConvAPParams.grid,
    use_bias: bool = True,
    rng: np.random.Generator | None = None,
) -> ConvAPParams:
    """Seeded uniform init scaled by 1/sqrt(c); zero bias."""
    rng = rng if rng is not None else np.random.default_rng(0)
    bound = 1.0 / np.sqrt(in_channels)
    weight = rng.uniform(-bound, bound, size=(out_channels, in_channels))
    bias = np.zeros(out_channels) if use_bias else None
    return ConvAPParams(weight, bias, grid)


def _gem_from_arrays(arrays: dict[str, np.ndarray], grid) -> GemParams:
    # keep the pooling exponent inside its validity range after an update
    np.clip(arrays["power"], GEM_MIN_POWER, None, out=arrays["power"])
    return GemParams(float(arrays["power"][0]))


@dataclass(frozen=True)
class Head:
    """One head kind: the parameter-free stage `pool(params, fmaps)` (it reads
    only the fixed grid, never a trainable array; it takes `_check_maps`'s
    float32 or float64 batch and returns float64), batch forward to raw rows
    and backward from d / d raw rows, both on the stage's output, trainable
    arrays by name, params rebuilt from arrays (clamped in place), and
    seeded init from a config with out_channels, grid, use_bias and
    gem_power."""

    pool: Callable
    forward: Callable
    backward: Callable
    arrays: Callable
    from_arrays: Callable
    init: Callable


HEADS: dict[str, Head] = {
    "conv_ap": Head(
        pool=lambda params, fmaps: _pool(fmaps, *params.grid),
        forward=_conv_ap_forward,
        backward=_conv_ap_backward,
        arrays=lambda params: {
            name: arr for name, arr in (("weight", params.weight), ("bias", params.bias))
            if arr is not None
        },
        from_arrays=lambda arrays, grid: ConvAPParams(arrays["weight"], arrays.get("bias"), grid),
        init=lambda c, cfg, rng: init_conv_ap(c, cfg.out_channels, cfg.grid, cfg.use_bias, rng),
    ),
    "gem": Head(
        pool=lambda params, fmaps: np.maximum(fmaps, 0.0, dtype=np.float64),
        forward=_gem_forward,
        backward=_gem_backward,
        arrays=lambda params: {"power": np.array([params.power])},
        from_arrays=_gem_from_arrays,
        init=lambda c, cfg, rng: GemParams(cfg.gem_power),
    ),
    "avg": Head(
        pool=lambda params, fmaps: _pool(fmaps, 1, 1),
        forward=lambda params, pooled: pooled.reshape(len(pooled), -1),
        backward=lambda params, pooled, g_raw: {},
        arrays=lambda params: {},
        from_arrays=lambda arrays, grid: None,
        init=lambda c, cfg, rng: None,
    ),
}
AGGREGATOR_KINDS = tuple(HEADS)


def head(kind: str) -> Head:
    """The table entry for an aggregator kind; ValueError for an unknown one."""
    if kind not in HEADS:
        raise ValueError(f"unknown aggregator kind {kind!r}")
    return HEADS[kind]


def pool(kind: str, params, fmaps: np.ndarray) -> np.ndarray:
    """The head's parameter-free stage on a checked (N, h, w, c) batch, as float64 rows.

    The batch may be float32 as stored (`_check_maps` decides whether it is
    widened first); the rows are the same bits either way. The rows are what
    `Head.forward` and `Head.backward` take, so maps that never change are
    pooled once and gathered by row afterwards. Every stage is row by row
    and a fixed point of itself (a pooled cell pools to itself, a clamped
    entry clamps to itself), so the stage can run in blocks of rows, and
    `forward` on its output equals `forward` on the maps, bit for bit. A
    non-finite map raises FeatureMapError with its row.
    """
    return head(kind).pool(params, _check_maps(fmaps))


def forward(kind: str, params, fmaps: np.ndarray) -> np.ndarray:
    """(N, D) unit descriptors for an (N, h, w, c) batch."""
    return unit_rows(head(kind).forward(params, pool(kind, params, fmaps)))[0]


def backward(kind: str, params, fmaps: np.ndarray, upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Head parameter gradients of sum_n <upstream[n], forward(fmaps)[n]> ({} for avg)."""
    h = head(kind)
    pooled = pool(kind, params, fmaps)
    g_raw = normalize_backward(*unit_rows(h.forward(params, pooled)), upstream)
    return h.backward(params, pooled, g_raw)

