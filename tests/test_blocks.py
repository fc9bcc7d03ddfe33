"""The head's parameter-free stage over a whole set, run in blocks of rows (`stage_payloads`)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vprkit import aggregators, places
from vprkit.aggregators import ConvAPParams, GemParams
from vprkit.cli import _descriptor_sets
from vprkit.errors import FeatureMapError
from vprkit.losses import LossConfig
from vprkit.tensorio import TensorRows, save_tensor
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
    indexes = split_index(db, 2)
    for index, staged in zip(indexes, _descriptor_sets(kind, HEADS[kind], db, *indexes)):
        assert len(index) % 3 != 0
        whole = embed_feature_maps(kind, HEADS[kind], maps_of(db, index), db.place_ids[index]).rows
        assert staged.vectors.tobytes() == whole.tobytes()


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
def test_a_payload_file_is_read_front_to_back(tmp_path, monkeypatch, block_bytes):
    db = loaded_db()
    save_tensor(tmp_path / "payloads.vprk", db.payloads)
    monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", block_bytes)
    taken, take = [], TensorRows.take
    monkeypatch.setattr(TensorRows, "take",
                        lambda self, rows, axis=0: taken.extend(rows) or take(self, rows, axis))
    index = np.concatenate(split_index(db, 2))  # the queries, then the references
    whole = aggregators.pool("gem", HEADS["gem"], maps_of(db, index))
    with TensorRows(tmp_path / "payloads.vprk") as rows:
        db.attach_payloads(rows)
        staged = stage_payloads(db, index, stage("gem"))
    assert taken == list(range(db.num_images()))
    assert staged.tobytes() == whole.tobytes()


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


def in_layout(maps, layout):
    """`maps` with the same entries, stored C-ordered, Fortran-ordered or with h and w swapped."""
    return {"C": maps, "Fortran": np.asfortranarray(maps),
            "transposed": np.ascontiguousarray(maps.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)}[layout]


@pytest.mark.parametrize("layout", ["Fortran", "transposed", "float32"])
@pytest.mark.parametrize("kind", sorted(HEADS))
def test_an_in_order_store_of_any_layout_gives_the_same_rows(monkeypatch, kind, layout):
    db = synth_places(4, 6, shape=SHAPE, rng_seed=5)  # its rows are the store's, in order
    maps = db.payloads.astype(np.float32) if layout == "float32" else db.payloads
    store = maps if layout == "float32" else in_layout(maps, layout)
    db.attach_payloads(store)
    whole = aggregators.pool(kind, HEADS[kind], maps.astype(np.float64))
    monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", 5 * MAP_BYTES)
    assert stage_payloads(db, np.arange(len(maps)), stage(kind)).tobytes() == whole.tobytes()


def float32_maps(shape, seed, huge=False):
    """Float32 maps whose magnitudes spread over six decades, or, if `huge`, lie near float32's
    largest (their float32 sum overflows)."""
    rng = np.random.default_rng(seed)
    scale = 1e37 if huge else 10 ** rng.uniform(-3, 3, shape)
    return (rng.standard_normal(shape) * scale).astype(np.float32)


@st.composite
def float32_stores(draw):
    """(store, grid, index): float32 maps in a drawn layout, a grid up to (h, w) and an order.

    Channel counts include 1, odd counts and counts above numpy's buffer of
    8,192 entries; one-channel maps reach cells of more than 8,192 entries.
    """
    c = draw(st.sampled_from([1, 2, 3, 7, 32, 8193, 9001]))
    extent = st.integers(1, 5) if c > 8 else st.integers(1, 12) | st.integers(90, 110)
    n, h, w = draw(st.integers(1, 4)), draw(extent), draw(extent)
    grid = (draw(st.just(1) | st.integers(1, h)), draw(st.just(1) | st.integers(1, w)))
    maps = float32_maps((n, h, w, c), draw(st.integers(0, 2**32 - 1)), c > 1 and draw(st.booleans()))
    index = np.arange(n)[::-1] if draw(st.booleans()) else np.arange(n)
    return in_layout(maps, draw(st.sampled_from(["C", "Fortran", "transposed"]))), grid, index


@pytest.mark.parametrize("kind", sorted(HEADS))
@settings(max_examples=60, deadline=None)
@given(case=float32_stores())
# one channel: a cell of 9,025 entries, summed pairwise; Fortran order with 8,193 channels
@example(case=(float32_maps((2, 95, 95, 1), 0), (1, 1), np.arange(2)))
@example(case=(in_layout(float32_maps((2, 6, 5, 8193), 0), "Fortran"), (1, 1), np.arange(2)))
def test_a_float32_store_stages_to_the_pool_of_its_float64_widening(kind, case):
    store, grid, index = case
    n = len(store)
    db = places.PlacesDB(np.arange(n), [f"m{i}" for i in range(n)], np.zeros(n), np.zeros(n),
                         np.full(n, np.nan), np.full(n, 2015), np.ones(n), np.arange(n))
    db.attach_payloads(store)
    params = ConvAPParams(np.ones((2, store.shape[3])), grid=grid) if kind == "conv_ap" else HEADS[kind]
    whole = aggregators.pool(kind, params, store[index].astype(np.float64))
    staged = stage_payloads(db, index, lambda fmaps: aggregators.pool(kind, params, fmaps))
    assert staged.dtype == np.float64 and staged.shape == whole.shape
    assert staged.tobytes() == whole.tobytes()


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


# float32 0x7f800001 is a signalling NaN: converting it raises "invalid"
BAD_ENTRIES = {"inf": 0x7F800000, "-inf": 0xFF800000, "nan": 0x7FC00000, "signalling nan": 0x7F800001}


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
def test_a_rejected_map_is_named_by_image_and_place(monkeypatch, block_bytes):
    monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", block_bytes)
    db = loaded_db()
    refs = split_index(db, 2)[1]
    at = (db.places[3].images[1].row, 0, 2, 1)
    for kind in sorted(HEADS):
        for entry in BAD_ENTRIES.values():
            db.payloads.view(np.uint32)[at] = entry
            # with no RuntimeWarning: the test configuration makes one an error
            with pytest.raises(FeatureMapError,
                               match="^image 'synth_00003_01' of place 3: feature map"):
                stage_payloads(db, refs, stage(kind))
    with pytest.raises(ValueError, match="^no images to stage$"):
        stage_payloads(db, [], stage("avg"))


def test_check_reports_the_first_bad_row():
    for dtype in (np.float64, np.float32):
        for channels in (SHAPE[2], 1):  # float32 maps are kept, or widened first
            fmaps = np.ones((5,) + SHAPE[:2] + (channels,), dtype)
            if dtype == np.float32:
                fmaps.view(np.uint32)[3, 1, 1, 0] = BAD_ENTRIES["signalling nan"]
            else:
                fmaps[3, 1, 1, 0] = np.nan
            fmaps[4, 0, 0, 0] = -np.inf
            with pytest.raises(FeatureMapError,
                               match="^map 3: feature map entries must be finite") as exc:
                aggregators.pool("avg", None, fmaps)
            assert exc.value.row == 3
