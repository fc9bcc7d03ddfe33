"""The head's parameter-free stage over a whole set, run in blocks of rows (`stage_payloads`)."""

import numpy as np
import pytest

from vprkit import aggregators, places
from vprkit.aggregators import ConvAPParams, GemParams
from vprkit.cli import _descriptor_set
from vprkit.errors import FeatureMapError
from vprkit.losses import LossConfig
from vprkit.places import (
    BatchSpec,
    split_index,
    stage_payloads,
    synth_places,
    training_view,
)
from vprkit.trainer import TrainConfig, embed_feature_maps, save_train_checkpoint, train

SHAPE = (5, 6, 4)
MAP_BYTES = 8 * 5 * 6 * 4  # one float64 map
HEADS = {
    "conv_ap": ConvAPParams(np.ones((3, 4)), grid=(2, 3)),
    "avg": None,
    "gem": GemParams(2.5),
}
# one row per block, 3 rows (which divides none of the set sizes below), more than every row
BLOCK_BYTES = [1, 3 * MAP_BYTES, 10**9]


def loaded_db(num_places=7, images_per_place=6, seed=3):
    """A synthetic database whose payloads are float32, as a loaded payloads.vprk is."""
    db = synth_places(num_places, images_per_place, shape=SHAPE, rng_seed=seed)
    db.attach_payloads(db.payloads.astype(np.float32))
    return db


def stage(kind):
    return lambda fmaps: aggregators.pool(kind, HEADS[kind], fmaps)


def maps_of(db, index):
    """The float64 maps of the images at the positions `index`, one image view at a time."""
    images = db.images()
    return np.stack([images[i].payload for i in index])


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("kind", sorted(HEADS))
def test_pooled_rows_equal_the_whole_array_stage(monkeypatch, kind, block_bytes):
    view = training_view(loaded_db(), 2)
    index = np.arange(view.num_images())[::-1]  # rows out of store order
    assert len(index) % 3 != 0
    whole = aggregators.pool(kind, HEADS[kind], maps_of(view, index))
    monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", block_bytes)
    blocked = stage_payloads(view, index, stage(kind))
    assert blocked.dtype == whole.dtype and blocked.shape == whole.shape
    assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("kind", sorted(HEADS))
def test_eval_descriptors_equal_the_whole_array_forward(monkeypatch, kind, block_bytes):
    db = loaded_db()
    monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", block_bytes)
    for index in split_index(db, 2):
        assert len(index) % 3 != 0
        whole = embed_feature_maps(kind, HEADS[kind], maps_of(db, index), db.place_ids[index]).rows
        assert _descriptor_set(kind, HEADS[kind], db, index).vectors.tobytes() == whole.tobytes()


@pytest.mark.parametrize("kind", ["conv_ap", "gem"])
def test_trained_checkpoints_do_not_depend_on_the_block_size(tmp_path, monkeypatch, kind):
    db = training_view(loaded_db(num_places=9, images_per_place=6), 2)
    cfg = TrainConfig(batch_spec=BatchSpec(4, 3, rng_seed=5), aggregator=kind, out_channels=6,
                      loss="multi_similarity", loss_config=LossConfig(), max_epochs=3, rng_seed=6)
    saved = []
    for block_bytes in BLOCK_BYTES:
        monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", block_bytes)
        params, log = train(db, cfg)
        path = tmp_path / f"{block_bytes}.vprc"
        save_train_checkpoint(path, cfg, params)
        saved.append((path.read_bytes(), log.losses))
    assert saved[0][1] and all(s == saved[0] for s in saved)


@pytest.mark.parametrize("kind", sorted(HEADS))
def test_memory_is_the_output_plus_a_few_blocks(monkeypatch, traced_memory, kind):
    # a 6 MB float32 store, 64 maps of 12 KB (float64) per block
    store = np.random.default_rng(0).standard_normal((512,) + (8, 8, 24)).astype(np.float32)
    n = len(store)
    db = places.PlacesDB(np.zeros(n), [f"m{i}" for i in range(n)], np.zeros(n), np.zeros(n),
                         np.full(n, np.nan), np.full(n, 2015), np.ones(n), np.arange(n))
    db.attach_payloads(store)
    index = np.arange(n)
    block = 64 * 8 * 8 * 8 * 24
    monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", block)
    params = ConvAPParams(np.ones((3, 24)), grid=(2, 2)) if kind == "conv_ap" else HEADS[kind]

    def run():
        return stage_payloads(db, index, lambda fmaps: aggregators.pool(kind, params, fmaps))

    out = run()  # first calls allocate their caches outside the traced run
    with traced_memory() as peak:
        out = run()
    # GeM's stage keeps every map (its output is twice the store); the others pool them away
    assert out.nbytes < (2.1 if kind == "gem" else 0.2) * store.nbytes
    assert peak.bytes < out.nbytes + 4 * block
    assert peak.bytes < 2 * store.nbytes + 4 * block  # gathering the set as float64 alone takes 2x


@pytest.mark.parametrize("layout", ["Fortran", "transposed"])
@pytest.mark.parametrize("kind", sorted(HEADS))
def test_an_in_order_store_of_any_layout_gives_the_same_rows(monkeypatch, kind, layout):
    db = synth_places(4, 6, shape=SHAPE, rng_seed=5)  # its rows are the store's, in order
    maps = db.payloads
    store = (np.asfortranarray(maps) if layout == "Fortran"
             else np.ascontiguousarray(maps.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3))
    db.attach_payloads(store)
    whole = aggregators.pool(kind, HEADS[kind], maps)
    monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", 5 * MAP_BYTES)
    assert stage_payloads(db, np.arange(len(maps)), stage(kind)).tobytes() == whole.tobytes()


@pytest.mark.parametrize("order", ["in store order", "reversed"])
@pytest.mark.parametrize("kind", sorted(HEADS))
def test_memory_is_the_output_and_one_block(monkeypatch, traced_memory, kind, order):
    # a 6 MB float32 store, 64 maps of 12 KB (float64) per block
    store = np.random.default_rng(0).standard_normal((512,) + (8, 8, 24)).astype(np.float32)
    n = len(store)
    db = places.PlacesDB(np.zeros(n), [f"m{i}" for i in range(n)], np.zeros(n), np.zeros(n),
                         np.full(n, np.nan), np.full(n, 2015), np.ones(n), np.arange(n))
    db.attach_payloads(store)
    index = np.arange(n) if order == "in store order" else np.arange(n)[::-1]
    block = 64 * 8 * 8 * 8 * 24
    monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", block)
    params = ConvAPParams(np.ones((3, 24)), grid=(2, 2)) if kind == "conv_ap" else HEADS[kind]

    def run():
        return stage_payloads(db, index, lambda fmaps: aggregators.pool(kind, params, fmaps))

    out = run()  # first calls allocate their caches outside the traced run
    with traced_memory() as peak:
        out = run()
    # Beyond the output: a float64 block and the check's temporaries, the float32 rows of a
    # take (a store in order is walked by views), and GeM's stage output, one more block.
    # Each block is dropped before the next is read.
    blocks = 1.25 + (order == "reversed") / 2 + (kind == "gem")
    assert peak.bytes < out.nbytes + blocks * block


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
def test_a_rejected_map_is_named_by_image_and_place(monkeypatch, block_bytes):
    monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", block_bytes)
    db = loaded_db()
    refs = split_index(db, 2)[1]
    db.payloads[db.places[3].images[1].row, 0, 2, 1] = np.inf
    with pytest.raises(FeatureMapError, match="^image 'synth_00003_01' of place 3: feature map"):
        stage_payloads(db, refs, stage("avg"))
    with pytest.raises(ValueError, match="^no images to stage$"):
        stage_payloads(db, [], stage("avg"))


def test_check_reports_the_first_bad_row():
    fmaps = np.ones((5,) + SHAPE)
    fmaps[3, 1, 1, 1] = np.nan
    fmaps[4, 0, 0, 0] = -np.inf
    with pytest.raises(FeatureMapError, match="^map 3: feature map entries must be finite") as exc:
        aggregators.pool("avg", None, fmaps)
    assert exc.value.row == 3
