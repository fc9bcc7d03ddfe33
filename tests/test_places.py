import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vprkit.errors import ManifestError, SamplerError
from vprkit.places import (
    BatchSampler,
    BatchSpec,
    PlacesDB,
    SynthConfig,
    grid_cell,
    haversine,
    ingest_manifest,
    manifest_bytes,
    query_reference_split,
    split_index,
    stage_payloads,
    synth_places,
    training_view,
)

HEADER = "place_id,image_ref,lat,lon,bearing,year,month\n"


def write_csv(tmp_path, body, name="manifest.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


def rows_for_place(pid, count, lat, lon):
    return "".join(
        f"{pid},img_{pid}_{i},{lat},{lon},90.0,2015,{1 + i % 12}\n" for i in range(count)
    )


def column_db(place_ids, lats=0.0, lons=0.0, bearings=np.nan, months=1, rows=None):
    """A PlacesDB from its columns; a number stands for that value in every row."""
    n = len(place_ids)
    return PlacesDB(place_ids, [f"i{k}" for k in range(n)], np.broadcast_to(lats, n),
                    np.broadcast_to(lons, n), np.broadcast_to(bearings, n), np.full(n, 2015),
                    np.broadcast_to(months, n), np.arange(n) if rows is None else rows)


class TestIngestManifest:
    def test_empty_manifest_rejected(self, tmp_path):
        path = write_csv(tmp_path, ",,,,,,\n")
        with pytest.raises(ManifestError, match=f"^{path}: the manifest lists no images$"):
            ingest_manifest(path, allow_small_places=True)

    def test_small_place_rejected_by_name(self, tmp_path):
        path = write_csv(tmp_path, rows_for_place(7, 3, 48.1, 2.2))
        with pytest.raises(ManifestError, match="place 7"):
            ingest_manifest(path)

    def test_small_place_allowed_with_flag(self, tmp_path):
        path = write_csv(tmp_path, rows_for_place(7, 3, 48.1, 2.2))
        db = ingest_manifest(path, allow_small_places=True)
        assert len(db) == 1 and len(db.places[0]) == 3

    def test_two_places_four_images(self, tmp_path):
        body = rows_for_place(0, 4, 48.1, 2.2) + rows_for_place(1, 4, 48.2, 2.3)
        db = ingest_manifest(write_csv(tmp_path, body))
        assert len(db) == 2
        assert all(len(p) == 4 for p in db.places)

    def test_parse_error_carries_line_number(self, tmp_path):
        body = rows_for_place(0, 4, 48.1, 2.2) + "1,img,not_a_number,2.0,,2015,1\n"
        with pytest.raises(ManifestError, match="line 6"):
            ingest_manifest(write_csv(tmp_path, body))

    def test_duplicate_ref_rejected(self, tmp_path):
        body = rows_for_place(0, 4, 48.1, 2.2)
        body += "0,img_0_0,48.1,2.2,,2016,1\n"
        with pytest.raises(ManifestError, match="duplicate"):
            ingest_manifest(write_csv(tmp_path, body))

    def test_out_of_range_coordinates_rejected(self, tmp_path):
        body = "0,img,91.0,2.0,,2015,1\n"
        with pytest.raises(ManifestError, match="lat"):
            ingest_manifest(write_csv(tmp_path, body), allow_small_places=True)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="header"):
            ingest_manifest(path)

    def test_shared_cell_places_rejected(self, tmp_path):
        body = rows_for_place(0, 4, 48.1001, 2.2001) + rows_for_place(1, 4, 48.10012, 2.20012)
        with pytest.raises(ManifestError, match="share grid cell"):
            ingest_manifest(write_csv(tmp_path, body))

    def test_roundtrip_through_write_manifest(self, tmp_path):
        body = rows_for_place(0, 4, 48.1, 2.2) + rows_for_place(1, 5, 48.2, 2.3)
        db = ingest_manifest(write_csv(tmp_path, body))
        out = tmp_path / "again.csv"
        out.write_bytes(manifest_bytes(db))
        db2 = ingest_manifest(out)
        assert [p.place_id for p in db2.places] == [p.place_id for p in db.places]
        assert [len(p) for p in db2.places] == [len(p) for p in db.places]


class TestGridGroup:
    def test_cell_quantization_by_hand(self):
        assert grid_cell(48.85812, 2.29450) == (48858, 2294)


class TestHaversine:
    def test_coincident_points(self):
        assert haversine((12.5, -7.25), (12.5, -7.25)) == 0.0

    def test_one_millidegree_of_latitude(self):
        assert haversine((0.0, 0.0), (0.001, 0.0)) == pytest.approx(111.195, abs=0.01)

    def test_symmetry_and_nonnegativity_random(self, rng):
        for _ in range(300):
            a = (float(rng.uniform(-89, 89)), float(rng.uniform(-179, 179)))
            b = (float(rng.uniform(-89, 89)), float(rng.uniform(-179, 179)))
            d_ab = haversine(a, b)
            d_ba = haversine(b, a)
            assert d_ab >= 0.0
            assert abs(d_ab - d_ba) < 1e-9
            if a != b:
                assert d_ab > 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        lat=st.floats(-89.0, 89.0, allow_nan=False),
        lon=st.floats(-179.0, 179.0, allow_nan=False),
        dlat=st.floats(-0.5, 0.5, allow_nan=False),
        dlon=st.floats(-0.5, 0.5, allow_nan=False),
    )
    def test_symmetry_hypothesis(self, lat, lon, dlat, dlon):
        a = (lat, lon)
        b = (lat + dlat, lon + dlon)
        assert haversine(a, b) == pytest.approx(haversine(b, a), abs=1e-9)

    def test_array_call_equals_scalar_calls(self, rng):
        lat1, lon1 = rng.uniform(-89, 89, 7), rng.uniform(-179, 179, 7)
        lat2 = np.concatenate([lat1[:2], lat1[:3] + rng.uniform(-1e-3, 1e-3, 3), rng.uniform(-89, 89, 4)])
        lon2 = np.concatenate([lon1[:2], lon1[:3] + rng.uniform(-1e-3, 1e-3, 3), rng.uniform(-179, 179, 4)])
        grid = haversine((lat1[:, None], lon1[:, None]), (lat2, lon2))
        assert grid.shape == (7, 9)
        for i in range(7):
            for j in range(9):
                expected = haversine((float(lat1[i]), float(lon1[i])), (float(lat2[j]), float(lon2[j])))
                assert grid[i, j] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert grid[0, 0] == 0.0 and grid[1, 1] == 0.0


class TestSynthPlaces:
    def test_zero_perturbation_identical_payloads(self):
        cfg = SynthConfig(max_shift=0, gain=0.0, noise_sigma=0.0)
        db = synth_places(3, 5, shape=(4, 4, 3), perturbation=cfg, rng_seed=11)
        for place in db.places:
            first = place.images[0].payload
            for img in place.images[1:]:
                np.testing.assert_array_equal(img.payload, first)

    def test_same_seed_bit_identical(self):
        a = synth_places(4, 4, shape=(5, 5, 6), rng_seed=123)
        b = synth_places(4, 4, shape=(5, 5, 6), rng_seed=123)
        for pa, pb in zip(a.places, b.places):
            for ia, ib in zip(pa.images, pb.images):
                np.testing.assert_array_equal(ia.payload, ib.payload)
                assert (ia.lat, ia.lon) == (ib.lat, ib.lon)

    def test_counts(self):
        db = synth_places(64, 8, shape=(3, 3, 2), rng_seed=0)
        assert len(db) == 64
        assert db.num_images() == 512
        assert len({p.place_id for p in db.places}) == 64

    def test_places_geographically_disjoint(self):
        synth_places(30, 4, shape=(3, 3, 2), rng_seed=5).check_disjoint()

    def test_distinct_dates(self):
        db = synth_places(2, 6, shape=(3, 3, 2), rng_seed=5)
        assert all(len({(img.year, img.month) for img in p.images}) >= 4 for p in db.places)


def tiny_db(num_places=12, images=5, seed=0):
    return synth_places(num_places, images, shape=(3, 3, 2), rng_seed=seed)


class TestBatchSampler:
    def test_paper_scale_batch_size(self):
        db = tiny_db(num_places=110, images=4)
        sampler = BatchSampler(db, BatchSpec(100, 4, rng_seed=0))
        batch = next(sampler.epoch())
        assert len(batch.index) == 400
        assert batch.feature_maps().shape == (400, 3, 3, 2)

    def test_not_enough_places(self):
        db = tiny_db(num_places=5)
        with pytest.raises(SamplerError):
            BatchSampler(db, BatchSpec(6, 2, rng_seed=0))

    def test_not_enough_images_filters_places(self):
        db = tiny_db(num_places=6, images=3)
        with pytest.raises(SamplerError):
            BatchSampler(db, BatchSpec(4, 4, rng_seed=0))

    def test_same_seed_identical_sequences(self):
        db = tiny_db()
        spec = BatchSpec(4, 3, rng_seed=9)
        sampler_a = BatchSampler(db, spec)
        sampler_b = BatchSampler(db, spec)
        seq_a = [b for _ in range(3) for b in sampler_a.epoch()]
        seq_b = [b for _ in range(3) for b in sampler_b.epoch()]
        assert len(seq_a) == len(seq_b)
        for ba, bb in zip(seq_a, seq_b):
            np.testing.assert_array_equal(sampler_a.index[ba.index], sampler_b.index[bb.index])
            np.testing.assert_array_equal(ba.labels, bb.labels)

    def test_batch_structure_invariant(self):
        db = tiny_db()
        spec = BatchSpec(4, 3, rng_seed=2)
        sampler = BatchSampler(db, spec)
        for _ in range(5):
            for batch in sampler.epoch():
                uniq, counts = np.unique(batch.labels, return_counts=True)
                assert len(uniq) == 4
                assert np.all(counts == 3)

    def test_epoch_visits_every_eligible_place_once(self):
        db = tiny_db(num_places=12)
        sampler = BatchSampler(db, BatchSpec(4, 3, rng_seed=1))
        for _ in range(4):
            seen = []
            for batch in sampler.epoch():
                seen.extend(np.unique(batch.labels).tolist())
            assert sorted(seen) == sorted(p.place_id for p in db.places)

    def test_images_within_batch_unique(self):
        db = tiny_db()
        sampler = BatchSampler(db, BatchSpec(6, 4, rng_seed=3))
        for batch in sampler.epoch():
            refs = db.image_refs[sampler.index[batch.index]].tolist()
            assert len(set(refs)) == len(refs)

    def test_labels_and_maps_follow_the_sampled_images(self):
        db = tiny_db()
        place_of = {img.image_ref: p.place_id for p in db.places for img in p.images}
        payload_of = {img.image_ref: img.payload for p in db.places for img in p.images}
        sampler = BatchSampler(db, BatchSpec(4, 3, rng_seed=4))
        for _ in range(3):
            for batch in sampler.epoch():
                refs = db.image_refs[sampler.index[batch.index]].tolist()
                assert batch.labels.dtype == np.int64
                np.testing.assert_array_equal(batch.labels, [place_of[ref] for ref in refs])
                np.testing.assert_array_equal(
                    batch.feature_maps(), np.stack([payload_of[ref] for ref in refs])
                )

    def test_database_without_payloads_rejected_by_its_first_eligible_image(self):
        db = tiny_db()
        db = db.take(np.flatnonzero(db.place_ids != 0)[2:])  # no place 0; place 1 keeps 3 images
        db.payloads = None
        with pytest.raises(SamplerError, match="^place 2 image 'synth_00002_00' has no payload$"):
            BatchSampler(db, BatchSpec(4, 4, rng_seed=0))


def choice_loop_epoch(rng, sizes, p, k):
    """The batches of one epoch drawn one `rng.choice` per place: the sampler's reference."""
    first = np.cumsum(sizes) - sizes
    order = rng.permutation(len(sizes))
    return [np.concatenate([first[i] + rng.choice(sizes[i], size=k, replace=False)
                            for i in order[start : start + p]])
            for start in range(0, len(sizes) // p * p, p)]


class TestSamplerDrawsAsChoiceLoop:
    """Every batch, and the generator state after every epoch, equal those of a loop of
    per-place `rng.choice` calls in chunk order."""

    @staticmethod
    def check(sizes, p, k, seed, epochs=3):
        sizes = np.asarray(sizes)
        db = column_db(np.repeat(np.arange(len(sizes)), sizes))
        db.attach_payloads(np.zeros((db.num_images(), 1, 1, 1), np.float32))
        sampler = BatchSampler(db, BatchSpec(p, k, rng_seed=seed))
        reference = np.random.default_rng(seed)
        eligible = sizes[sizes >= k]
        for _ in range(epochs):
            batches = [batch.index for batch in sampler.epoch()]
            expected = choice_loop_epoch(reference, eligible, p, k)
            assert len(batches) == len(expected) == len(eligible) // p
            for got, want in zip(batches, expected):
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)
            assert sampler._rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("p", [2, 5, 16])
    def test_unequal_place_sizes(self, seed, p):
        sizes = np.random.default_rng(seed + 100).integers(4, 40, size=3 * p + 1)
        self.check(sizes, p, 4, seed)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_k_equal_to_the_smallest_eligible_size(self, k):
        # places smaller than K are left out; the smallest eligible place gives all its images
        sizes = [k - 1, k, 2 * k, k, k + 1, 1, k, 5 * k, k]
        self.check(sizes, 3, k, seed=k)

    @pytest.mark.parametrize("k", [200, 201])
    def test_both_sides_of_numpys_tail_shuffle(self, k):
        # numpy's choice shuffles a tail, not Floyd's algorithm, once n > 10,000 and
        # K > n // 50: at n = 10,001 that is K = 201; over the epochs the large places fall
        # at every position of a chunk
        sizes = [10_001, 300, 250, 10_001, 220, 10_001]
        self.check(sizes, 2, k, seed=3, epochs=4)
        self.check(sizes, 3, k, seed=5, epochs=4)


class TestPayloadStore:
    def test_synth_keeps_float64_payloads(self):
        db = synth_places(3, 5, shape=(4, 4, 3), rng_seed=2)
        assert db.payloads.dtype == np.float64
        assert db.payloads.shape == (15, 4, 4, 3)
        assert not np.array_equal(db.payloads, db.payloads.astype(np.float32))  # unrounded
        images = [img for p in db.places for img in p.images]
        assert all(img.store is db.payloads for img in images)
        assert [img.row for img in images] == list(range(15))
        np.testing.assert_array_equal(images[7].payload, db.payloads[7])

    def test_attached_float32_store_is_kept_and_read_exactly(self):
        db = synth_places(3, 5, shape=(4, 4, 3), rng_seed=2)
        stack = db.payloads.astype(np.float32)
        db.attach_payloads(stack)
        assert db.payloads is stack
        img = db.places[1].images[2]
        assert img.store is stack and img.row == 7
        assert img.payload.dtype == np.float64
        np.testing.assert_array_equal(img.payload, stack[7])

    def test_each_map_is_its_manifest_row(self, tmp_path):
        body = "".join(f"{pid},{ref},{45 + pid / 100},7.0,,2015,1\n"
                       for pid, ref in [(0, "a"), (1, "b"), (0, "c"), (1, "d")])
        db = ingest_manifest(write_csv(tmp_path, body), allow_small_places=True)
        db.attach_payloads(np.arange(4.0).reshape(4, 1, 1, 1))
        assert {img.image_ref: float(img.payload[0, 0, 0]) for img in db.images()} == {
            "a": 0.0, "b": 1.0, "c": 2.0, "d": 3.0}
        np.testing.assert_array_equal(np.concatenate(list(db.payload_blocks())).ravel(),
                                      [0.0, 2.0, 1.0, 3.0])

    def test_attach_rejects_images_without_distinct_rows(self):
        db = column_db([0, 0, 0], rows=[0, 2, 0])
        with pytest.raises(ValueError, match="rows 0 to M-1, each once"):
            db.attach_payloads(np.zeros((3, 1, 1, 1)))

    def test_attach_rejects_a_misaligned_array(self):
        db = synth_places(3, 5, shape=(4, 4, 3), rng_seed=2)
        with pytest.raises(ValueError, match="manifest lists 15 maps"):
            db.attach_payloads(db.payloads[:-1])

    def test_a_payload_is_read_only_and_detached_with_its_store(self):
        db = synth_places(2, 4, shape=(3, 3, 2), rng_seed=2)
        img = db.places[0].images[0]
        with pytest.raises(AttributeError):
            img.payload = np.zeros((3, 3, 2))
        with pytest.raises(AttributeError):
            img.payload = None
        with pytest.raises(AttributeError):
            img.store = None
        db.payloads = None
        assert [img.payload for img in db.images()] == [None] * 8

    def test_payload_blocks_of_a_view(self):
        db = synth_places(4, 5, shape=(3, 3, 2), rng_seed=2)
        [block] = db.payload_blocks()
        assert block.base is db.payloads  # in order: a view
        np.testing.assert_array_equal(block, db.payloads)
        view = training_view(db, 2)
        np.testing.assert_array_equal(
            np.concatenate(list(view.payload_blocks())),
            np.stack([img.payload for p in view.places for img in p.images]),
        )

    def test_payload_blocks_and_stage_payloads_by_block(self, monkeypatch):
        from vprkit import places

        db = synth_places(4, 5, shape=(3, 3, 2), rng_seed=2)
        view = training_view(db, 2)  # rows out of order: takes
        ordered = {store: np.concatenate(list(store.payload_blocks())) for store in (db, view)}
        monkeypatch.setattr(places, "PAYLOAD_BLOCK_BYTES", 8 * 3 * 3 * 2 * 5)  # 5 maps a block
        for store, sizes in ((db, [5, 5, 5, 5]), (view, [5, 5, 2])):
            blocks = list(store.payload_blocks())
            assert [len(block) for block in blocks] == sizes
            np.testing.assert_array_equal(np.concatenate(blocks), ordered[store])
        assert all(block.base is db.payloads for block in db.payload_blocks())  # in order: views
        seen = []
        staged = stage_payloads(view, np.arange(2, 9),
                                lambda fmaps: seen.append(len(fmaps)) or fmaps)
        assert seen == [5, 2]
        np.testing.assert_array_equal(staged, ordered[view][2:9])

    def test_gather_names_an_image_without_a_payload(self):
        db = synth_places(2, 4, shape=(3, 3, 2), rng_seed=2)
        db.payloads = None
        with pytest.raises(ValueError, match="^image 'synth_00001_01' has no payload$"):
            stage_payloads(db, [5, 6], lambda fmaps: fmaps)

    def test_payload_blocks_without_payloads_fail_at_the_call(self):
        db = synth_places(2, 4, shape=(3, 3, 2), rng_seed=2)
        db.payloads = None
        with pytest.raises(ValueError, match="^image 'synth_00000_00' has no payload$"):
            db.payload_blocks()

    def test_batch_index_points_into_the_sampler_images(self):
        db = tiny_db()
        sampler = BatchSampler(db, BatchSpec(4, 3, rng_seed=4))
        for batch in sampler.epoch():
            at = sampler.index[batch.index]
            np.testing.assert_array_equal(batch.rows, db.rows[at])
            np.testing.assert_array_equal(batch.labels, db.place_ids[at])
            assert batch.store is db.payloads


class TestSplits:
    def test_query_reference_split_sizes(self):
        db = tiny_db(num_places=6, images=5)
        queries, refs = query_reference_split(db, 2)
        assert len(queries) == 12
        assert len(refs) == 18
        qrefs = {img.image_ref for _, img in queries}
        rrefs = {img.image_ref for _, img in refs}
        assert not qrefs & rrefs

    def test_training_view_removes_held_out(self):
        db = tiny_db(num_places=6, images=5)
        view = training_view(db, 2)
        assert all(len(p) == 3 for p in view.places)
        queries, _ = query_reference_split(db, 2)
        held_out = {img.image_ref for _, img in queries}
        remaining = {img.image_ref for p in view.places for img in p.images}
        assert not held_out & remaining

    def test_split_too_deep_rejected(self):
        db = tiny_db(num_places=3, images=4)
        with pytest.raises(ValueError):
            query_reference_split(db, 4)

    def test_split_of_uneven_places(self):
        db = column_db([5, 5, 5, 9, 9, 2, 2, 2, 2])
        queries, refs = split_index(db, 1)
        assert queries.tolist() == [2, 4, 8] and refs.tolist() == [0, 1, 3, 5, 6, 7]
        view = training_view(db, 1)
        assert [(p.place_id, len(p)) for p in view.places] == [(5, 2), (9, 1), (2, 3)]
        with pytest.raises(ValueError, match="^place 9 has 2 images, cannot hold out 2 queries$"):
            split_index(db, 2)


class TestDbValidation:
    def test_duplicate_place_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            column_db([1, 1, 1, 1, 2, 1, 1, 1, 1], lats=[1.0] * 4 + [3.0] + [2.0] * 4)

    def test_place_ids_compared_as_integers(self):
        db = column_db([2**62, 2**62 + 1, 2**62 + 1])
        assert [(p.place_id, len(p)) for p in db.places] == [(2**62, 1), (2**62 + 1, 2)]

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            PlacesDB([0, 0], ["a", "b"], [0.0] * 2, [0.0] * 2, [np.nan] * 2, [2015] * 2, [1] * 2,
                     [0])

    def test_shift_bound_rejected(self):
        with pytest.raises(ValueError):
            synth_places(2, 4, shape=(2, 2, 2), perturbation=SynthConfig(max_shift=2))

    def test_invalid_month_rejected(self):
        with pytest.raises(ValueError, match="month"):
            column_db([0], months=13)

    def test_bearing_range(self):
        with pytest.raises(ValueError, match="bearing"):
            column_db([0], bearings=360.0)
        assert column_db([0]).images()[0].bearing is None  # NaN is a blank bearing

    @pytest.mark.parametrize("column, value, message", [
        ("lats", 91.0, "lat 91.0 outside [-90, 90]"),
        ("lons", np.nan, "lon nan outside [-180, 180]"),
        ("bearings", -1.0, "bearing -1.0 outside [0, 360)"),
        ("months", 0, "month 0 outside [1, 12]")])
    def test_range_messages(self, column, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            column_db([0, 0], **{column: [0 if column == "months" else 0.0, value]})


class TestCentroidSummation:
    """A centroid is each coordinate summed by plain left-to-right float addition."""

    def near_edge(self):
        # seeded search: 12 latitudes within 1e-12 of 48.888, a cell edge, whose mean floors
        # to cell 48887 summed left to right and to 48888 summed as `np.add.reduceat` pairs them
        lats = 48.888 + np.random.default_rng(221).uniform(-1e-12, 1e-12, 12)
        total = 0.0  # not Python's `sum`, which compensates rounding from Python 3.12
        for lat in lats.tolist():
            total += lat
        assert grid_cell(total / 12, 0.0)[0] == 48887
        assert grid_cell(np.add.reduceat(lats, [0])[0] / 12, 0.0)[0] == 48888
        return lats

    def test_cell_of_a_centroid_near_an_edge(self):
        lats = self.near_edge()
        db = column_db([0] * 12 + [1] * 4, lats=np.concatenate([lats, [48.8875] * 4]),
                       lons=2.2005)
        with pytest.raises(ValueError, match=r"^places 0 and 1 share grid cell \(48887, 2200\)$"):
            db.check_disjoint()
        column_db([0] * 12 + [1] * 4, lats=np.concatenate([lats, [48.8885] * 4]),
                  lons=2.2005).check_disjoint()

    def test_through_a_manifest(self, tmp_path):
        lats = self.near_edge().tolist()
        body = "".join(f"7,a{i},{lat!r},2.2005,,2015,1\n" for i, lat in enumerate(lats))
        path = write_csv(tmp_path, body + rows_for_place(3, 4, 48.8875, 2.2005))
        with pytest.raises(ManifestError, match=r"places 7 and 3 share grid cell \(48887, 2200\)$"):
            ingest_manifest(path)

