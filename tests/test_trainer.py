import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from test_losses import dense_multi_similarity

from vprkit import aggregators, tensorio, trainer
from vprkit.embeddings import similarity_matrix
from vprkit.errors import DivergenceError, FormatError
from vprkit.losses import WeakTuple, weak_triplet_total
from vprkit.mining import hardest_mining
from vprkit.places import BatchSampler, BatchSpec, SynthConfig, synth_places, training_view
from vprkit.trainer import (
    OptimizerState,
    TrainConfig,
    embed_feature_maps,
    init_aggregator,
    load_train_checkpoint,
    lr_at_epoch,
    save_train_checkpoint,
    sgd_step,
    train,
)


def small_db(num_places=16, images=6, seed=5):
    return synth_places(num_places, images, shape=(5, 5, 8), rng_seed=seed)


def small_cfg(**overrides):
    defaults = dict(
        batch_spec=BatchSpec(4, 3, rng_seed=1),
        aggregator="conv_ap",
        out_channels=8,
        grid=(2, 2),
        max_epochs=4,
        rng_seed=7,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestLrSchedule:
    def test_paper_values(self):
        cfg = small_cfg()
        assert lr_at_epoch(cfg, 0) == pytest.approx(0.03, rel=1e-12)
        assert lr_at_epoch(cfg, 5) == pytest.approx(0.009, rel=1e-12)
        assert lr_at_epoch(cfg, 10) == pytest.approx(0.0027, rel=1e-12)

    def test_constant_within_window(self):
        cfg = small_cfg()
        for epoch in range(5):
            assert lr_at_epoch(cfg, epoch) == 0.03

    def test_non_increasing(self):
        cfg = small_cfg()
        lrs = [lr_at_epoch(cfg, e) for e in range(40)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at_epoch(small_cfg(), -1)


class TestSgdStep:
    def test_plain_sgd_when_momentum_zero(self, rng):
        p = rng.standard_normal((3, 2))
        g = rng.standard_normal((3, 2))
        expected = p - 0.1 * g
        state = OptimizerState(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step({"w": p}, {"w": g}, state)
        np.testing.assert_allclose(p, expected, atol=1e-15)

    def test_zero_grad_zero_velocity_fixed_point(self, rng):
        p = rng.standard_normal(4)
        before = p.copy()
        state = OptimizerState(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step({"w": p}, {"w": np.zeros(4)}, state)
        np.testing.assert_array_equal(p, before)

    def test_single_step_hand_value(self):
        p = np.array([1.0])
        state = OptimizerState(learning_rate=0.03, momentum=0.9, weight_decay=0.001)
        sgd_step({"w": p}, {"w": np.array([1.0])}, state)
        assert p[0] == pytest.approx(0.96997, abs=1e-12)

    def test_three_step_hand_trace(self):
        # scalar parameter 1.0, constant gradient 1.0; trace the update rule
        # g' = g + wd*p ; v = m*v + g' ; p = p - lr*v with plain float ops
        lr, mom, wd = 0.03, 0.9, 0.001
        p_ref, v_ref = 1.0, 0.0
        p = np.array([1.0])
        state = OptimizerState(learning_rate=lr, momentum=mom, weight_decay=wd)
        for _ in range(3):
            g_ref = 1.0 + wd * p_ref
            v_ref = mom * v_ref + g_ref
            p_ref = p_ref - lr * v_ref
            sgd_step({"w": p}, {"w": np.array([1.0])}, state)
            assert p[0] == pytest.approx(p_ref, abs=1e-12)

    def test_weight_decay_pulls_toward_zero(self):
        p = np.array([2.0])
        state = OptimizerState(learning_rate=0.1, momentum=0.0, weight_decay=0.01)
        sgd_step({"w": p}, {"w": np.array([0.0])}, state)
        assert p[0] == pytest.approx(2.0 - 0.1 * 0.02, abs=1e-15)

    def test_no_decay_set_respected(self):
        b = np.array([2.0])
        state = OptimizerState(
            learning_rate=0.1, momentum=0.0, weight_decay=0.01, no_decay=("bias",)
        )
        sgd_step({"bias": b}, {"bias": np.array([0.0])}, state)
        assert b[0] == 2.0

    def test_non_finite_gradient_aborts(self):
        state = OptimizerState(learning_rate=0.1)
        with pytest.raises(DivergenceError, match="w"):
            sgd_step({"w": np.ones(2)}, {"w": np.array([np.nan, 0.0])}, state)

    def test_shape_mismatch_rejected(self):
        state = OptimizerState(learning_rate=0.1)
        with pytest.raises(ValueError):
            sgd_step({"w": np.ones(2)}, {"w": np.ones(3)}, state)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            OptimizerState(learning_rate=-0.1)
        with pytest.raises(ValueError):
            OptimizerState(learning_rate=0.1, momentum=1.0)


class TestTrainLoop:
    def test_zero_epochs_returns_init_unchanged(self):
        db = small_db()
        cfg = small_cfg(max_epochs=0)
        params, log = train(db, cfg)
        init = init_aggregator(cfg, 8)
        np.testing.assert_array_equal(params.weight, init.weight)
        np.testing.assert_array_equal(params.bias, init.bias)
        assert log.steps == []

    def test_same_seed_bit_identical_losses(self):
        db = small_db()
        cfg = small_cfg(max_epochs=3)
        _, log_a = train(db, cfg)
        _, log_b = train(db, cfg)
        assert log_a.losses == log_b.losses  # exact float equality

    def test_zero_learning_rate_is_identity(self):
        db = small_db()
        cfg = small_cfg(initial_lr=0.0, max_epochs=2)
        params, log = train(db, cfg)
        init = init_aggregator(cfg, 8)
        np.testing.assert_array_equal(params.weight, init.weight)
        np.testing.assert_array_equal(params.bias, init.bias)
        assert len(log.steps) > 0

    def test_loss_decreases_on_synthetic(self):
        db = small_db(num_places=16, images=6)
        cfg = small_cfg(max_epochs=8, out_channels=16)
        params, log = train(db, cfg)
        def mean_loss(epoch):
            return np.mean([rec.loss for rec in log.steps if rec.epoch == epoch])

        assert mean_loss(cfg.max_epochs - 1) < mean_loss(0)

    def test_trained_head_keeps_unit_norm_outputs(self):
        db = small_db()
        cfg = small_cfg(max_epochs=3)
        params, _ = train(db, cfg)
        fmaps = np.stack([img.payload for img in db.places[0].images])
        batch = embed_feature_maps("conv_ap", params, fmaps, np.zeros(len(fmaps), int))
        np.testing.assert_allclose(np.linalg.norm(batch.rows, axis=1), 1.0, atol=1e-6)

    def test_gem_training_moves_power(self):
        db = small_db()
        cfg = small_cfg(aggregator="gem", max_epochs=2, gem_power=3.0)
        params, log = train(db, cfg)
        assert params.power != 3.0
        assert len(log.steps) == 2 * 4  # 16 places / P=4 -> 4 batches per epoch

    def test_gem_power_stays_in_valid_range(self):
        # an absurd learning rate must not push the exponent past its floor
        db = small_db()
        cfg = small_cfg(aggregator="gem", max_epochs=3, gem_power=0.01, initial_lr=50.0)
        params, _ = train(db, cfg)
        assert params.power >= 1e-3

    def test_avg_training_is_noop_but_logs(self):
        db = small_db()
        cfg = small_cfg(aggregator="avg", max_epochs=1)
        params, log = train(db, cfg)
        assert params is None
        assert len(log.steps) == 4

    def test_triplet_requires_ohm(self):
        with pytest.raises(ValueError, match="ohm"):
            small_cfg(loss="triplet", miner="ms")

    def test_triplet_with_ohm_runs(self):
        db = small_db()
        cfg = small_cfg(loss="triplet", miner="ohm", max_epochs=2)
        _, log = train(db, cfg)
        assert all(np.isfinite(v) for v in log.losses)

    def test_weak_triplet_runs(self):
        db = small_db()
        cfg = small_cfg(loss="weak_triplet", miner="all", max_epochs=2)
        _, log = train(db, cfg)
        assert all(np.isfinite(v) for v in log.losses)

    def test_weak_triplet_uses_the_mined_set(self):
        db = small_db()
        cfg = small_cfg(loss="weak_triplet", miner="ohm", max_epochs=1)
        _, log = train(db, cfg)
        batch = next(BatchSampler(db, cfg.batch_spec).epoch())
        params = init_aggregator(cfg, 8)
        ebatch = embed_feature_maps("conv_ap", params, batch.feature_maps(), batch.labels)
        sim = similarity_matrix(ebatch)
        mined = hardest_mining(sim, batch.labels)
        tuples = [WeakTuple(a, [p], [n]) for a, p, n in mined.triplets]
        expected = weak_triplet_total(ebatch, tuples, cfg.loss_config, sim=sim)
        assert log.steps[0].loss == expected.value
        assert log.steps[0].triplets == len(tuples)

    def test_contrastive_with_all_pairs_runs(self):
        db = small_db()
        cfg = small_cfg(loss="contrastive", miner="all", max_epochs=2)
        _, log = train(db, cfg)
        assert all(np.isfinite(v) for v in log.losses)

    def test_epoch_lrs_follow_schedule(self):
        db = small_db()
        cfg = small_cfg(max_epochs=7, lr_decay_every=3)
        _, log = train(db, cfg)
        assert log.epoch_lrs == [(e, lr_at_epoch(cfg, e)) for e in range(7)]

    def test_mining_stats_logged(self):
        db = small_db()
        cfg = small_cfg(max_epochs=1)
        _, log = train(db, cfg)
        rec = log.steps[0]
        assert rec.positives >= 0 and rec.negatives >= 0
        assert rec.epoch == 0 and rec.step == 0


class TestTrainConfigSerialization:
    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(aggregator="netvlad")
        with pytest.raises(ValueError):
            small_cfg(loss="fastap")
        with pytest.raises(ValueError):
            small_cfg(miner="offline")


class TestCheckpoints:
    def test_conv_ap_roundtrip(self, tmp_path):
        db = small_db()
        cfg = small_cfg(max_epochs=2)
        params, _ = train(db, cfg)
        path = tmp_path / "head.vprc"
        save_train_checkpoint(path, cfg, params)
        kind, loaded, echo = load_train_checkpoint(path)
        assert kind == "conv_ap"
        assert echo["out_channels"] == 8
        np.testing.assert_allclose(loaded.weight, params.weight, atol=1e-6)
        np.testing.assert_allclose(loaded.bias, params.bias, atol=1e-6)
        assert loaded.grid == (2, 2)

    def test_gem_roundtrip(self, tmp_path):
        db = small_db()
        cfg = small_cfg(aggregator="gem", max_epochs=1)
        params, _ = train(db, cfg)
        path = tmp_path / "gem.vprc"
        save_train_checkpoint(path, cfg, params)
        kind, loaded, _ = load_train_checkpoint(path)
        assert kind == "gem"
        assert loaded.power == pytest.approx(params.power, abs=1e-6)

    @pytest.mark.parametrize("power", [-5.0, 0.0, 1e-4])
    def test_gem_power_the_head_would_clamp_rejected(self, tmp_path, power):
        path = tmp_path / "gem.vprc"
        tensorio.save_checkpoint(path, "gem", {"power": np.array([power])}, {})
        with pytest.raises(FormatError,
                           match="gem.vprc: tensor 'power' holds values a gem head does not take"):
            load_train_checkpoint(path)

    @pytest.mark.parametrize("kind", ["netvlad", "pca"])
    def test_kind_that_is_no_head_rejected(self, tmp_path, kind):
        path = tmp_path / "c.vprc"
        tensorio.save_checkpoint(path, kind, {"mean": np.zeros(3)}, {})
        with pytest.raises(FormatError, match=f"c.vprc: checkpoint of kind '{kind}' is not an"):
            load_train_checkpoint(path)

    def test_trainable_arrays_shapes(self):
        cfg = small_cfg()
        params = init_aggregator(cfg, 8)
        arrays = aggregators.head("conv_ap").arrays(params)
        assert arrays["weight"].shape == (8, 8)
        assert arrays["bias"].shape == (8,)


def per_step_reference(db, cfg):
    """Training as one loop that stacks each batch's maps and runs the head on maps.

    The trainer pools every training map once and gathers pooled rows per
    step; this loop pools each batch again, in forward and in backward.
    """
    sampler = BatchSampler(db, cfg.batch_spec)
    images = db.images()
    params = init_aggregator(cfg, images[0].payload.shape[2])
    arrays = aggregators.head(cfg.aggregator).arrays(params)
    state = OptimizerState(
        learning_rate=cfg.initial_lr,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        no_decay=() if cfg.decay_bias else ("bias",),
    )
    steps, epoch_lrs = [], []
    for epoch in range(cfg.max_epochs):
        state.learning_rate = lr_at_epoch(cfg, epoch)
        epoch_lrs.append([epoch, state.learning_rate])
        for batch in sampler.epoch():
            params = aggregators.head(cfg.aggregator).from_arrays(arrays, cfg.grid)
            fmaps = np.stack([images[i].payload for i in sampler.index[batch.index]])
            ebatch = embed_feature_maps(cfg.aggregator, params, fmaps, batch.labels)
            sim = similarity_matrix(ebatch)
            mined = trainer._mine(cfg, sim, batch.labels)
            out = trainer._loss(cfg, ebatch, mined, sim)
            if arrays:
                grads = aggregators.backward(cfg.aggregator, params, fmaps, out.grad)
                sgd_step(arrays, grads, state)
            steps.append({"step": len(steps), "epoch": epoch, "loss": float(out.value),
                          **mined.stats()})
    return aggregators.head(cfg.aggregator).from_arrays(arrays, cfg.grid), steps, epoch_lrs


class TestPooledOnceEqualsPerStep:
    LOSSES = [("multi_similarity", "ms"), ("multi_similarity", "all"),
              ("contrastive", "ms"), ("contrastive", "all"), ("triplet", "ohm"),
              ("weak_triplet", "ohm")]

    def check(self, tmp_path, db, cfg):
        params, log = train(db, cfg)
        ref_params, ref_steps, ref_lrs = per_step_reference(db, cfg)
        logged = json.loads(json.dumps(dataclasses.asdict(log)))
        assert logged["steps"] == ref_steps
        assert logged["epoch_lrs"] == ref_lrs
        save_train_checkpoint(tmp_path / "pooled.vprc", cfg, params)
        save_train_checkpoint(tmp_path / "per_step.vprc", cfg, ref_params)
        assert (tmp_path / "pooled.vprc").read_bytes() == (tmp_path / "per_step.vprc").read_bytes()

    @pytest.mark.parametrize("loss,miner", LOSSES)
    @pytest.mark.parametrize("aggregator", ["conv_ap", "avg", "gem"])
    def test_trainlog_and_checkpoint_bytes(self, tmp_path, aggregator, loss, miner):
        cfg = small_cfg(aggregator=aggregator, loss=loss, miner=miner, max_epochs=3)
        self.check(tmp_path, small_db(), cfg)

    def test_float32_store(self, tmp_path):
        db = small_db()
        db.attach_payloads(db.payloads.astype(np.float32))
        self.check(tmp_path, training_view(db, 2), small_cfg(max_epochs=3))


def dense_ms_mining(sim, labels, epsilon):
    """The ms rule as full-matrix masks: label masks and np.where fills over (N, N)."""
    same = labels[:, None] == labels[None, :]
    diff = ~same
    np.fill_diagonal(same, False)
    has_both = (same.any(axis=1) & diff.any(axis=1))[:, None]
    min_pos = np.where(same, sim, np.inf).min(axis=1, keepdims=True)
    max_neg = np.where(diff, sim, -np.inf).max(axis=1, keepdims=True)
    return SimpleNamespace(positive=same & has_both & (sim < max_neg + epsilon),
                           negative=diff & has_both & (sim > min_pos - epsilon),
                           skipped=int(np.count_nonzero(~has_both)))


def dense_reference(db, cfg):
    """Training with a full-matrix ms miner and MS loss and per-batch maps, sharing no
    mining or loss code with the trainer."""
    sampler = BatchSampler(db, cfg.batch_spec)
    head = aggregators.head(cfg.aggregator)
    arrays = head.arrays(init_aggregator(cfg, db.payloads.shape[3]))
    state = cfg.optimizer_state()
    steps = []
    for epoch in range(cfg.max_epochs):
        state.learning_rate = lr_at_epoch(cfg, epoch)
        for batch in sampler.epoch():
            params = head.from_arrays(arrays, cfg.grid)
            fmaps = batch.feature_maps()
            ebatch = embed_feature_maps(cfg.aggregator, params, fmaps, batch.labels)
            sim = similarity_matrix(ebatch)
            mined = dense_ms_mining(sim, batch.labels, cfg.miner_epsilon)
            value, grad = dense_multi_similarity(ebatch, mined, cfg.loss_config, sim)
            sgd_step(arrays, aggregators.backward(cfg.aggregator, params, fmaps, grad), state)
            steps.append({"step": len(steps), "epoch": epoch, "loss": float(value),
                          "positives": int(np.count_nonzero(mined.positive)),
                          "negatives": int(np.count_nonzero(mined.negative)),
                          "triplets": 0, "skipped_anchors": mined.skipped})
    return head.from_arrays(arrays, cfg.grid), steps


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_desk_pk400_run_equals_the_dense_reference(tmp_path, seed):
    """100 x 4 batches of 7x7x32 maps (the desk_pk400 benchmark's training run): the
    trainlog and the checkpoint bytes equal those of full-matrix mining and loss."""
    db = synth_places(200, 8, shape=(7, 7, 32), perturbation=SynthConfig(noise_sigma=0.05),
                      rng_seed=seed)
    db = training_view(db, 2)
    cfg = TrainConfig(batch_spec=BatchSpec(100, 4, rng_seed=seed), out_channels=64, grid=(2, 2),
                      max_epochs=3, rng_seed=seed + 1)
    params, log = train(db, cfg)
    ref_params, ref_steps = dense_reference(db, cfg)
    assert len(ref_steps) == 6
    assert json.loads(json.dumps(dataclasses.asdict(log)))["steps"] == ref_steps
    save_train_checkpoint(tmp_path / "trained.vprc", cfg, params)
    save_train_checkpoint(tmp_path / "dense.vprc", cfg, ref_params)
    assert (tmp_path / "trained.vprc").read_bytes() == (tmp_path / "dense.vprc").read_bytes()


class TestOneLossCall:
    @pytest.mark.parametrize("loss,miner", [("contrastive", "ms"), ("triplet", "ohm"),
                                            ("multi_similarity", "ms"), ("weak_triplet", "all")])
    def test_looks_the_loss_up_at_call_time(self, monkeypatch, loss, miner):
        from vprkit import losses

        calls = []
        monkeypatch.setattr(losses, f"{loss}_loss", lambda *a, **kw: calls.append((a, kw)))
        cfg = small_cfg(loss=loss, miner=miner)
        trainer._loss(cfg, "batch", "mined", "sim")
        assert calls == [(("batch", "mined", cfg.loss_config), {"sim": "sim"})]

    @pytest.mark.parametrize("miner", ["all", "ohm", "ms"])
    def test_weak_triplet_training_builds_no_tuples(self, monkeypatch, miner):
        def refuse(self):
            raise AssertionError("a WeakTuple was built")

        monkeypatch.setattr(WeakTuple, "__post_init__", refuse)
        _, log = train(small_db(), small_cfg(loss="weak_triplet", miner=miner, max_epochs=2))
        assert log.steps and all(np.isfinite(v) for v in log.losses)


class TestNanHyperparametersRejected:
    """NaN fails every comparison, so each check is written to fail on it."""

    @pytest.mark.parametrize(
        "field", ["initial_lr", "lr_decay_factor", "miner_epsilon", "weight_decay"]
    )
    def test_train_config(self, field):
        with pytest.raises(ValueError, match=field):
            small_cfg(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["miner_epsilon", "weight_decay"])
    def test_train_config_negative(self, field):
        with pytest.raises(ValueError, match=field):
            small_cfg(**{field: -0.1})

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    def test_optimizer_state(self, field):
        values = {"learning_rate": 0.1, "weight_decay": 0.001, field: float("nan")}
        with pytest.raises(ValueError, match=field):
            OptimizerState(**values)
