"""Supervised training loop over balanced place batches.

One step: sample a P x K batch, aggregate feature maps into unit-norm
descriptors, form the similarity matrix, mine informative pairs, evaluate
the loss and its gradient, and update the aggregation head with SGD
(momentum plus L2 weight decay). The backbone is a frozen feature-map
source, so the trainable state is just the head parameters, and the
head's parameter-free stage (pooling) runs once over the training maps
before the first step; each step gathers its batch's pooled rows.

Runs are deterministic given the seeds: the update order is single
threaded and every random draw goes through seeded generators.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import aggregators, losses, mining, places, tensorio
from .embeddings import EmbeddingBatch, similarity_matrix
from .errors import DivergenceError, FormatError
from .places import BatchSampler, BatchSpec, PlacesDB

LOSS_KINDS = ("contrastive", "triplet", "multi_similarity", "weak_triplet")
MINER_KINDS = ("all", "ohm", "ms")


@dataclass
class OptimizerState:
    """SGD hyperparameters plus per-tensor velocity buffers."""

    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.001
    velocity: dict[str, np.ndarray] = field(default_factory=dict)
    no_decay: tuple[str, ...] = ()

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
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
    grid: tuple[int, int] = (2, 2)
    use_bias: bool = True
    gem_power: float = 3.0
    loss: str = "multi_similarity"
    loss_config: losses.LossConfig | None = None
    miner: str = "ms"
    miner_epsilon: float = 0.1
    initial_lr: float = 0.03
    lr_decay_factor: float = 0.3
    lr_decay_every: int = 5
    max_epochs: int = 30
    momentum: float = 0.9
    weight_decay: float = 0.001
    decay_bias: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        if self.aggregator not in aggregators.AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.miner not in MINER_KINDS:
            raise ValueError(f"unknown miner {self.miner!r}")
        if self.loss == "triplet" and self.miner != "ohm":
            raise ValueError("triplet loss needs a triplet miner; use miner='ohm'")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.initial_lr < 0:
            raise ValueError("initial_lr must be >= 0")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if self.lr_decay_factor <= 0:
            raise ValueError("lr_decay_factor must be positive")
        if self.loss_config is None:
            self.loss_config = losses.default_loss_config(self.loss)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["batch_spec"] = asdict(self.batch_spec)
        out["loss_config"] = asdict(self.loss_config)
        out["grid"] = list(self.grid)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        data["batch_spec"] = BatchSpec(**data["batch_spec"])
        if data.get("loss_config") is not None:
            data["loss_config"] = losses.LossConfig(**data["loss_config"])
        data["grid"] = tuple(data["grid"])
        return cls(**data)


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

    def epoch_mean_loss(self, epoch: int) -> float:
        vals = [rec.loss for rec in self.steps if rec.epoch == epoch]
        if not vals:
            raise ValueError(f"no steps logged for epoch {epoch}")
        return float(np.mean(vals))

    def to_dict(self) -> dict:
        return {
            "steps": [asdict(rec) for rec in self.steps],
            "epoch_lrs": [[e, lr] for e, lr in self.epoch_lrs],
            "wall_clock_s": self.wall_clock_s,
        }


def init_aggregator(cfg: TrainConfig, in_channels: int):
    """Seeded parameter initialization for the configured head."""
    rng = np.random.default_rng(cfg.rng_seed)
    return aggregators.head(cfg.aggregator).init(in_channels, cfg, rng)


def embed_feature_maps(kind: str, params, fmaps: np.ndarray, labels) -> EmbeddingBatch:
    """Run the aggregation head over stacked (N, h, w, c) feature maps."""
    return EmbeddingBatch(aggregators.forward(kind, params, fmaps), labels, normalized=True)


def _mine(cfg: TrainConfig, sim: np.ndarray, labels: np.ndarray) -> mining.MinedSet:
    if cfg.miner == "all":
        return mining.enumerate_pairs(labels)
    if cfg.miner == "ohm":
        return mining.hardest_mining(sim, labels)
    return mining.ms_mining(sim, labels, cfg.miner_epsilon)


def _loss(cfg: TrainConfig, batch: EmbeddingBatch, mined, sim) -> losses.LossOutput:
    # `losses.<kind>_loss`, looked up per call: a replaced module attribute is the one called
    return getattr(losses, f"{cfg.loss}_loss")(batch, mined, cfg.loss_config, sim=sim)


def train(db: PlacesDB, cfg: TrainConfig):
    """Run the full loop; returns (trained params, TrainLog).

    With max_epochs == 0 the initialized parameters are returned
    untouched with an empty log; with learning rate 0 the loop runs but
    parameters never move.
    """
    started = time.perf_counter()
    sampler = BatchSampler(db, cfg.batch_spec)
    head = aggregators.head(cfg.aggregator)
    fmaps = places.gather_payloads(sampler.images)
    params = init_aggregator(cfg, fmaps.shape[3])
    # checked and pooled once; row i belongs to sampler.images[i]
    pooled = aggregators.pool(cfg.aggregator, params, fmaps)
    del fmaps
    arrays = aggregators.trainable_arrays(cfg.aggregator, params)
    state = OptimizerState(
        learning_rate=cfg.initial_lr,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        no_decay=() if cfg.decay_bias else ("bias",),
    )
    log = TrainLog()

    step = 0
    for epoch in range(cfg.max_epochs):
        state.learning_rate = lr_at_epoch(cfg, epoch)
        log.epoch_lrs.append((epoch, state.learning_rate))
        for batch in sampler.epoch():
            params = head.from_arrays(arrays, cfg.grid)
            rows = pooled.take(batch.index, axis=0)
            ebatch = EmbeddingBatch(head.forward(params, rows), batch.labels, normalized=True)
            sim = similarity_matrix(ebatch)
            mined = _mine(cfg, sim, batch.labels)
            out = _loss(cfg, ebatch, mined, sim)
            if not np.isfinite(out.value):
                raise DivergenceError(f"non-finite loss {out.value} at step {step}")

            if arrays:
                grads = head.backward(params, rows, out.grad)
                sgd_step(arrays, grads, state)

            log.steps.append(
                StepRecord(step=step, epoch=epoch, loss=float(out.value), **mined.stats())
            )
            step += 1

    params = head.from_arrays(arrays, cfg.grid)
    log.wall_clock_s = time.perf_counter() - started
    return params, log


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_train_checkpoint(path, cfg: TrainConfig, params) -> None:
    tensors = aggregators.trainable_arrays(cfg.aggregator, params)
    tensorio.save_checkpoint(path, cfg.aggregator, tensors, cfg.to_dict())


def load_train_checkpoint(path):
    """Returns (kind, params, config echo dict).

    FormatError names a tensor the head needs but the file lacks, and a
    stored tensor the head does not take in that shape.
    """
    kind, tensors, config = tensorio.load_checkpoint(path)
    grid = config.get("grid", [2, 2])
    if not (
        isinstance(grid, list) and len(grid) == 2 and all(type(v) is int and v > 0 for v in grid)
    ):
        raise FormatError(f"{path}: grid must be a list of two positive ints, got {grid!r}")
    head = aggregators.head(kind)
    try:
        params = head.from_arrays(tensors, tuple(grid))
    except KeyError as exc:
        raise FormatError(f"{path}: {kind} checkpoint has no tensor {exc.args[0]!r}") from exc
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: bad {kind} checkpoint tensors: {exc}") from exc
    expected = head.arrays(params)
    for name, arr in tensors.items():
        if name not in expected or arr.shape != expected[name].shape:
            wanted = expected[name].shape if name in expected else "no such tensor"
            raise FormatError(
                f"{path}: tensor {name!r} has shape {arr.shape}; a {kind} head takes {wanted}"
            )
    return kind, params, config
