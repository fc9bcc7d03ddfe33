"""`synth_places` and the manifest writer against the per-image loop they replaced.

`synth_row_by_row` is the generator loop that built one map per image with
two `np.roll` calls, and `manifest_row_by_row` the `csv.writer` loop that
wrote one row per image; both are kept here as oracles. The same seed and
configuration must give the same payload bytes, the same manifest bytes
and the same records.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vprkit.places import (
    DEFAULT_CELL_DEG,
    MANIFEST_COLUMNS,
    SYNTH_ORIGIN,
    SynthConfig,
    _channel_noise_profile,
    manifest_bytes,
    synth_places,
)


def _blur_by_rolls(m, passes):
    out = m
    for _ in range(passes):
        acc = np.zeros_like(out)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                acc += np.roll(np.roll(out, dy, axis=0), dx, axis=1)
        out = acc / 9.0
    return out


def synth_row_by_row(num_places, images_per_place, shape, cfg, seed):
    """(maps, records): one map per image, with a record (place id, ref, lat, lon, bearing, year, month)."""
    h, w, c = shape
    rng = np.random.default_rng(seed)
    noise_std = _channel_noise_profile(cfg, c, rng)
    grid_cols = int(math.ceil(math.sqrt(num_places)))
    stack = np.empty((num_places * images_per_place, h, w, c))
    records = []
    for pid in range(num_places):
        latent = np.maximum(_blur_by_rolls(rng.standard_normal((h, w, c)), cfg.latent_blur), 0.0)
        while not np.any(latent > 0.0):
            latent = np.maximum(_blur_by_rolls(rng.standard_normal((h, w, c)), cfg.latent_blur), 0.0)
        place_lat = SYNTH_ORIGIN[0] + (pid // grid_cols) * DEFAULT_CELL_DEG + 0.0005
        place_lon = SYNTH_ORIGIN[1] + (pid % grid_cols) * DEFAULT_CELL_DEG + 0.0005
        for j in range(images_per_place):
            dy = int(rng.integers(-cfg.max_shift, cfg.max_shift + 1))
            dx = int(rng.integers(-cfg.max_shift, cfg.max_shift + 1))
            gain = 1.0 + cfg.gain * float(rng.uniform(-1.0, 1.0))
            channel_noise = rng.standard_normal(c) * noise_std
            row = pid * images_per_place + j
            stack[row] = np.roll(np.roll(latent, dy, axis=0), dx, axis=1) * gain
            stack[row] += channel_noise[None, None, :]
            jitter_lat = float(rng.uniform(-2e-5, 2e-5))
            jitter_lon = float(rng.uniform(-2e-5, 2e-5))
            records.append((pid, f"synth_{pid:05d}_{j:02d}", place_lat + jitter_lat,
                            place_lon + jitter_lon, float(rng.uniform(0.0, 360.0)),
                            2010 + j // 12, 1 + j % 12))
    return stack, records


def manifest_row_by_row(records) -> bytes:
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(MANIFEST_COLUMNS)
    for pid, ref, lat, lon, bearing, year, month in records:
        writer.writerow([pid, ref, repr(lat), repr(lon), repr(bearing), year, month])
    return text.getvalue().encode("utf-8")


def check_against_oracle(num_places, images_per_place, shape, cfg, seed):
    db = synth_places(num_places, images_per_place, shape, cfg, rng_seed=seed)
    maps, records = synth_row_by_row(num_places, images_per_place, shape, cfg, seed)
    assert db.payloads.dtype == maps.dtype and db.payloads.shape == maps.shape
    assert db.payloads.tobytes() == maps.tobytes()
    got = [(place.place_id, img.image_ref, img.lat, img.lon, img.bearing, img.year, img.month)
           for place in db.places for img in place.images]
    assert got == records
    assert all(type(a) is type(b) for g, r in zip(got, records) for a, b in zip(g, r))
    assert [img.row for img in db.images()] == list(range(len(records)))
    assert all(img.store is db.payloads for img in db.images())
    assert manifest_bytes(db) == manifest_row_by_row(records)


@st.composite
def synth_case(draw):
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    shape = (h, w, draw(st.integers(1, 16)))
    magnitude = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    cfg = SynthConfig(max_shift=draw(st.integers(0, min(h, w) - 1)), gain=draw(magnitude),
                      noise_sigma=draw(magnitude), latent_blur=draw(st.integers(0, 3)),
                      unstable_fraction=draw(st.floats(0.0, 1.0)),
                      noise_contrast=draw(st.floats(1.0, 50.0)))
    return draw(st.integers(1, 12)), draw(st.integers(1, 9)), shape, cfg, draw(st.integers(0, 2**32))


class TestSynthAgainstRowByRow:
    @settings(max_examples=150, deadline=None)
    @given(case=synth_case())
    def test_same_bytes_and_records(self, case):
        check_against_oracle(*case)

    @pytest.mark.parametrize("num_places, images_per_place, shape, cfg", [
        (200, 8, (7, 7, 32), SynthConfig()),
        (16, 6, (20, 20, 64), SynthConfig()),
        (5, 3, (3, 3, 4), SynthConfig()),
        (9, 4, (2, 2, 1), SynthConfig(max_shift=1, latent_blur=3)),
        (30, 2, (1, 1, 1), SynthConfig(max_shift=0)),
    ])
    def test_fixed_cases(self, num_places, images_per_place, shape, cfg):
        check_against_oracle(num_places, images_per_place, shape, cfg, seed=3)

    def test_one_cell_maps_redraw(self):
        # a 1x1x1 latent is one normal, whose sign the blur keeps, after the ReLU: with this seed
        # the first place's first draw is negative, so its latent is redrawn
        rng = np.random.default_rng(4)
        _channel_noise_profile(SynthConfig(), 1, rng)
        assert rng.standard_normal((1, 1, 1))[0, 0, 0] <= 0.0
        check_against_oracle(30, 2, (1, 1, 1), SynthConfig(max_shift=0), seed=4)


class TestSynthConfig:
    def test_negative_latent_blur_rejected(self):
        with pytest.raises(ValueError, match="latent_blur"):
            SynthConfig(latent_blur=-1)

    def test_zero_latent_blur_accepted(self):
        check_against_oracle(3, 2, (3, 3, 2), SynthConfig(latent_blur=0), seed=1)

    @pytest.mark.parametrize("field", ["noise_sigma", "gain", "noise_contrast"])
    def test_nan_magnitude_rejected(self, field):
        with pytest.raises(ValueError, match="must be"):
            SynthConfig(**{field: math.nan})
