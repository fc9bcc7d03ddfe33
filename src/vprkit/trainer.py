"""Supervised training loop over balanced place batches.

One step: sample a P x K batch, aggregate feature maps into raw rows,
normalize them once into unit-norm descriptors, form the similarity
matrix, mine informative pairs, evaluate the loss and its gradient, and
update the aggregation head with SGD (momentum plus L2 weight decay).
The unit rows are checked once, by `EmbeddingBatch`; `similarity_matrix`
checks only the squared norms on its product's diagonal. The `ms` miner
works from the batch's label groups, not from (N, N) label masks, and
hands the loss its mined entries as sorted flat indices, so no mask is
scanned twice.
The backbone is a frozen feature-map source, so the trainable state is
just the head parameters, and the head's parameter-free stage (pooling)
runs once over the training maps, in blocks of rows, before the first
step; each step gathers its batch's pooled rows. The loss's row gradient
is already projected onto each unit row's tangent space, and the
normalization backward projects it again: the same gradient up to
rounding, kept until a numerical-equivalence policy lets the bits move.

Runs are deterministic given the seeds: the update order is single
threaded and every random draw goes through seeded generators.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import aggregators, losses, mining, places, tensorio
from .embeddings import EmbeddingBatch, normalize_backward, similarity_matrix, unit_rows
from .errors import DivergenceError, FormatError
from .places import BatchSampler, BatchSpec, PlacesDB


@dataclass
class OptimizerState:
    """SGD hyperparameters plus per-tensor velocity buffers."""

    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.001
    velocity: dict[str, np.ndarray] = field(default_factory=dict)
    no_decay: tuple[str, ...] = ()

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be >= 0")


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
) -> dict[str, np.ndarray]:
    """Heavy-ball update: v <- momentum*v + (grad + wd*param); param -= lr*v.

    Updates params in place and returns them. Aborts on non-finite
    gradients so divergence surfaces immediately instead of as NaN
    descriptors later.
    """
    for name, param in params.items():
        if name not in grads:
            continue
        grad = np.asarray(grads[name], dtype=np.float64)
        if grad.shape != param.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != parameter shape {param.shape} for {name!r}"
            )
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
        if state.weight_decay > 0.0 and name not in state.no_decay:
            grad = grad + state.weight_decay * param
        vel = state.velocity.get(name)
        if vel is None:
            vel = np.zeros_like(param)
        vel = state.momentum * vel + grad
        state.velocity[name] = vel
        param -= state.learning_rate * vel
    return params


@dataclass
class TrainConfig:
    """Everything needed to reproduce a training run."""

    batch_spec: BatchSpec
    aggregator: str = "conv_ap"
    out_channels: int = 64
    grid: tuple[int, int] = aggregators.ConvAPParams.grid
    use_bias: bool = True
    gem_power: float = aggregators.GemParams.power
    loss: str = "multi_similarity"
    loss_config: losses.LossConfig | None = None
    miner: str = "ms"
    miner_epsilon: float = mining.MS_EPSILON
    initial_lr: float = 0.03
    lr_decay_factor: float = 0.3
    lr_decay_every: int = 5
    max_epochs: int = 15
    momentum: float = OptimizerState.momentum
    weight_decay: float = OptimizerState.weight_decay
    decay_bias: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        if self.aggregator not in aggregators.AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.loss not in losses.LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.miner not in mining.MINER_KINDS:
            raise ValueError(f"unknown miner {self.miner!r}")
        if self.loss == "triplet" and self.miner != "ohm":
            raise ValueError("triplet loss needs a triplet miner; use miner='ohm'")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        # written so that NaN fails each comparison
        if not self.initial_lr >= 0:
            raise ValueError("initial_lr must be >= 0")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if not self.lr_decay_factor > 0:
            raise ValueError("lr_decay_factor must be positive")
        if not self.miner_epsilon >= 0:
            raise ValueError("miner_epsilon must be >= 0")
        # the SGD values and the GeM exponent are checked by the classes that take them
        self.optimizer_state()
        try:
            aggregators.GemParams(self.gem_power)
        except ValueError as exc:
            raise ValueError(f"gem_power: {exc}") from None
        if self.loss_config is None:
            self.loss_config = losses.default_loss_config(self.loss)

    def optimizer_state(self) -> OptimizerState:
        """A fresh SGD state at the initial learning rate."""
        return OptimizerState(self.initial_lr, self.momentum, self.weight_decay,
                              no_decay=() if self.decay_bias else ("bias",))


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Stepped decay: initial_lr * factor^(epoch // every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.initial_lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


@dataclass
class StepRecord:
    step: int
    epoch: int
    loss: float
    positives: int
    negatives: int
    triplets: int
    skipped_anchors: int


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)
    epoch_lrs: list[tuple[int, float]] = field(default_factory=list)
    wall_clock_s: float = 0.0

    @property
    def losses(self) -> list[float]:
        return [rec.loss for rec in self.steps]


def init_aggregator(cfg: TrainConfig, in_channels: int):
    """Seeded parameter initialization for the configured head."""
    rng = np.random.default_rng(cfg.rng_seed)
    return aggregators.head(cfg.aggregator).init(in_channels, cfg, rng)


def embed_feature_maps(kind: str, params, fmaps: np.ndarray, labels) -> EmbeddingBatch:
    """Run the aggregation head over stacked (N, h, w, c) feature maps."""
    return EmbeddingBatch(aggregators.forward(kind, params, fmaps), labels)


def _mine(cfg: TrainConfig, sim: np.ndarray, labels: np.ndarray) -> mining.MinedSet:
    if cfg.miner == "all":
        return mining.enumerate_pairs(labels)
    if cfg.miner == "ohm":
        return mining.hardest_mining(sim, labels)
    return mining.ms_mining(sim, labels, cfg.miner_epsilon)


def _loss(cfg: TrainConfig, batch: EmbeddingBatch, mined, sim) -> losses.LossOutput:
    # `losses.<kind>_loss`, looked up per call: a replaced module attribute is the one called
    return getattr(losses, f"{cfg.loss}_loss")(batch, mined, cfg.loss_config, sim=sim)


def _step(cfg: TrainConfig, head, params, rows, labels, arrays, state, step: int):
    """One SGD step on a batch's pooled `rows`; returns the loss and the mined set's stats.

    The raw rows are normalized once, for the loss and the head's backward,
    and checked once, by `EmbeddingBatch`. Every per-step array is local, so
    none outlives the step.
    """
    unit, norms = unit_rows(head.forward(params, rows))
    ebatch = EmbeddingBatch(unit, labels)
    sim = similarity_matrix(ebatch)
    mined = _mine(cfg, sim, labels)
    out = _loss(cfg, ebatch, mined, sim)
    if not np.isfinite(out.value):
        raise DivergenceError(f"non-finite loss {out.value} at step {step}")
    if arrays:
        g_raw = normalize_backward(unit, norms, out.grad)
        sgd_step(arrays, head.backward(params, rows, g_raw), state)
    return float(out.value), mined.stats()


def train(db: PlacesDB, cfg: TrainConfig):
    """Run the full loop; returns (trained params, TrainLog).

    With max_epochs == 0 the initialized parameters are returned
    untouched with an empty log; with learning rate 0 the loop runs but
    parameters never move.
    """
    started = time.perf_counter()
    sampler = BatchSampler(db, cfg.batch_spec)
    head = aggregators.head(cfg.aggregator)
    params = init_aggregator(cfg, db.payloads.shape[3])
    # checked and pooled once, block by block; row i belongs to image sampler.index[i]
    pooled = places.stage_payloads(db, sampler.index,
                                   lambda fmaps: aggregators.pool(cfg.aggregator, params, fmaps))
    arrays = head.arrays(params)
    state = cfg.optimizer_state()
    log = TrainLog()

    step = 0
    for epoch in range(cfg.max_epochs):
        state.learning_rate = lr_at_epoch(cfg, epoch)
        log.epoch_lrs.append((epoch, state.learning_rate))
        for batch in sampler.epoch():
            params = head.from_arrays(arrays, cfg.grid)
            loss, stats = _step(cfg, head, params, pooled.take(batch.index, axis=0),
                                batch.labels, arrays, state, step)
            log.steps.append(StepRecord(step=step, epoch=epoch, loss=loss, **stats))
            step += 1

    params = head.from_arrays(arrays, cfg.grid)
    log.wall_clock_s = time.perf_counter() - started
    return params, log


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_train_checkpoint(path, cfg: TrainConfig, params) -> None:
    tensors = aggregators.head(cfg.aggregator).arrays(params)
    tensorio.save_checkpoint(path, cfg.aggregator, tensors, asdict(cfg))


def load_train_checkpoint(path):
    """Returns (kind, params, config echo dict).

    FormatError names a kind that is no head, a tensor the head needs but
    the file lacks, and a stored tensor that the head rebuilt from the file
    does not keep as stored, by name, shape and value (so a GeM exponent
    that the rebuild would clamp is not loaded).
    """
    kind, tensors, config = tensorio.load_checkpoint(path)
    if kind not in aggregators.AGGREGATOR_KINDS:
        raise FormatError(f"{path}: checkpoint of kind {kind!r} is not an aggregation head")
    grid = config.get("grid", list(TrainConfig.grid))
    if not (
        isinstance(grid, list) and len(grid) == 2 and all(type(v) is int and v > 0 for v in grid)
    ):
        raise FormatError(f"{path}: grid must be a list of two positive ints, got {grid!r}")
    head = aggregators.head(kind)
    stored = {name: arr.copy() for name, arr in tensors.items()}  # the rebuild clamps in place
    try:
        params = head.from_arrays(tensors, tuple(grid))
    except KeyError as exc:
        raise FormatError(f"{path}: {kind} checkpoint has no tensor {exc.args[0]!r}") from exc
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: bad {kind} checkpoint tensors: {exc}") from exc
    kept = head.arrays(params)
    for name, arr in stored.items():
        if name not in kept or arr.shape != kept[name].shape:
            wanted = kept[name].shape if name in kept else "no such tensor"
            raise FormatError(
                f"{path}: tensor {name!r} has shape {arr.shape}; a {kind} head takes {wanted}"
            )
        if not np.array_equal(arr, kept[name], equal_nan=True):
            raise FormatError(f"{path}: tensor {name!r} holds values a {kind} head does not take")
    return kind, params, config
