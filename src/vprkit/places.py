"""Place-centric data model, ingestion, synthesis and batch sampling.

A *place* is a set of images depicting one physical location, tagged with
a shared integer ID. A database is a set of places whose locations are
geographically disjoint at the resolution of a lat/lon grid cell
(0.001 degrees, roughly 100 meters).

Image payloads are dense feature maps (h, w, c); this module never touches
pixels. A database's maps are the rows of one (M, h, w, c) store, either
an array (`synth_places` builds one in float64) or a `tensorio.TensorRows`
reading them from the open payload file. Row i is the map of the
manifest's i-th data row. A store enters a database only through
`PlacesDB.attach_payloads`, which points each image at it.
A batch is one `take`, and a stage over a whole set (`stage_payloads`)
takes one block of rows at a time, so a loaded database never holds all
of its maps in memory. Real data enters through a CSV manifest,
desk-scale experiments use the seeded synthetic generator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FeatureMapError, ManifestError, SamplerError
from .tensorio import (FLOAT64, FLOAT64_OR_BLANK, INT64, TEXT, TensorRows, read_table, read_text,
                       table_bytes)

DEFAULT_CELL_DEG = 0.001
MIN_IMAGES_PER_PLACE = 4
# (lat, lon) of the south-west corner of the synthetic place grid
SYNTH_ORIGIN = (45.0, 7.0)

# Float64 bytes of maps `stage_payloads` converts at a time. A block this size
# stays in cache, and it bounds the memory a stage over a whole set needs
# beyond an in-memory store and the stage's output.
PAYLOAD_BLOCK_BYTES = 1 << 20

# Mean Earth radius (IUGG), meters.
EARTH_RADIUS_M = 6_371_008.8

MANIFEST_COLUMNS = {"place_id": INT64, "image_ref": TEXT, "lat": FLOAT64, "lon": FLOAT64,
                    "bearing": FLOAT64_OR_BLANK, "year": INT64, "month": INT64}
MANIFEST_HEADER = list(MANIFEST_COLUMNS)


@dataclass(slots=True)  # one record per image: slots keep it small
class ImageRecord:
    """One image of a place: an opaque reference plus capture metadata.

    Its (h, w, c) feature map, if any, is row `row` of `store`, the
    (M, h, w, c) payload store of its database: an array or a
    `tensorio.TensorRows`. `row` is the image's data row in its manifest,
    set when the database is read or synthesized; `store` is set by
    `PlacesDB.attach_payloads`. Neither is passed to the constructor.
    """

    image_ref: str
    lat: float
    lon: float
    bearing: float | None = None
    year: int = 0
    month: int = 1
    store: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    row: int = field(default=0, init=False)

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"lat {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"lon {self.lon} outside [-180, 180]")
        if self.bearing is not None and not 0.0 <= self.bearing < 360.0:
            raise ValueError(f"bearing {self.bearing} outside [0, 360)")
        if not 1 <= self.month <= 12:
            raise ValueError(f"month {self.month} outside [1, 12]")

    @property
    def payload(self) -> np.ndarray | None:
        """The feature map as float64 (exact for a float32 store), or None."""
        return None if self.store is None else self.store[self.row].astype(np.float64)


@dataclass
class Place:
    place_id: int
    images: list[ImageRecord]

    def __len__(self) -> int:
        return len(self.images)

    def centroid(self) -> tuple[float, float]:
        lat = sum(img.lat for img in self.images) / len(self.images)
        lon = sum(img.lon for img in self.images) / len(self.images)
        return lat, lon


def grid_cell(lat: float, lon: float) -> tuple[int, int]:
    """Quantize coordinates to a DEFAULT_CELL_DEG grid cell by floor division.

    Floor is used (rather than rounding) so the assignment is deterministic
    and independent of the order records arrive in.
    """
    return (math.floor(lat / DEFAULT_CELL_DEG), math.floor(lon / DEFAULT_CELL_DEG))


@dataclass
class PlacesDB:
    """Immutable collection of geographically disjoint places."""

    places: list[Place]

    def __post_init__(self):
        ids = [p.place_id for p in self.places]
        if len(ids) != len(set(ids)):
            raise ValueError("place ids are not unique")

    def __len__(self) -> int:
        return len(self.places)

    def num_images(self) -> int:
        return sum(len(p) for p in self.places)

    def images(self) -> list[ImageRecord]:
        """Every image, place by place."""
        return [img for place in self.places for img in place.images]

    @property
    def payloads(self) -> np.ndarray | TensorRows | None:
        """The (M, h, w, c) store whose rows the images' maps are; None unless all share one.

        It is an array, or the `TensorRows` of a payload file.
        """
        return _shared_store(self.images())

    def attach_payloads(self, stack: np.ndarray | TensorRows) -> None:
        """Make a rank-4 store the payloads: row i is the map of the image from manifest row i.

        The store is kept as given: an array (a float32 file load stays
        float32) or the `TensorRows` of an open payload file.
        """
        images = self.images()
        if stack.ndim != 4 or stack.shape[0] != len(images):
            raise ValueError(
                f"payload tensor has shape {stack.shape}, manifest lists {len(images)} maps"
            )
        if sorted(img.row for img in images) != list(range(len(images))):
            raise ValueError("the images' rows are not manifest rows 0 to M-1, each once")
        for img in images:
            img.store = stack

    def payloads_in_order(self) -> np.ndarray | None:
        """The images' maps, row i for the i-th image in place order; None without `payloads`.

        `payloads` must be an array.

        This is `payloads` itself when the images are its rows in order, as
        in a synthesized database or one whose manifest lists places whole.
        """
        store = self.payloads
        if store is None:
            return None
        rows = np.array([img.row for img in self.images()], dtype=np.intp)
        return store if np.array_equal(rows, np.arange(len(store))) else store.take(rows, axis=0)

    def check_disjoint(self) -> None:
        """Verify no two places share a grid cell (centroid-based).

        Grid-built databases satisfy this by construction; manifest-built
        ones are checked here so a validated DB always means physically
        distant places.
        """
        seen: dict[tuple[int, int], int] = {}
        for p in self.places:
            cell = grid_cell(*p.centroid())
            if cell in seen:
                raise ValueError(
                    f"places {seen[cell]} and {p.place_id} share grid cell {cell}"
                )
            seen[cell] = p.place_id

    def check_min_images(self) -> None:
        for p in self.places:
            if len(p) < MIN_IMAGES_PER_PLACE:
                raise ValueError(
                    f"place {p.place_id} has {len(p)} images, needs >= {MIN_IMAGES_PER_PLACE}"
                )


def haversine(a: tuple, b: tuple) -> np.ndarray:
    """Great-circle distance in meters between (lat, lon) points.

    Coordinates broadcast like numpy operands: scalars give a float64,
    ((Q, 1), (R,)) coordinates a (Q, R) matrix.
    """
    lat1, lon1 = np.radians(a[0]), np.radians(a[1])
    lat2, lon2 = np.radians(b[0]), np.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


# ---------------------------------------------------------------------------
# Manifest ingestion
# ---------------------------------------------------------------------------

def _manifest_records(path: Path) -> dict[int, list[ImageRecord]]:
    """The manifest's images grouped by place id, places and images in file order.

    The first row with a problem raises ManifestError naming the file and
    the line, with the row's first problem in the order of the checks:
    fields, numbers, image_ref, ImageRecord's ranges, duplicates.
    """
    table = read_table(read_text(path, ManifestError), MANIFEST_COLUMNS, skip_blank_rows=True)
    if table.header is None:
        raise ManifestError(f"{path}: line 1: empty file, expected header")
    if [h.strip() for h in table.header] != MANIFEST_HEADER:
        raise ManifestError(f"{path}: line 1: bad header {table.header!r}, "
                            f"expected {','.join(MANIFEST_HEADER)}")
    pids, refs, lats, lons, bearings, years, months = table.columns.values()
    pids, refs = pids.tolist(), [ref.strip() for ref in refs]
    problems = []  # (row, rank of the check, message)
    if table.fault:
        fault = table.fault
        problems.append((fault.row, 0, f"cannot parse row: {fault.reason}" if fault.reason
                         else f"expected {len(MANIFEST_HEADER)} fields, got {fault.fields}"))
    if "" in refs:
        problems.append((refs.index(""), 1, "empty image_ref"))
    records: list[ImageRecord] = []
    try:  # on a bad row, `records` holds the records of the rows before it
        records.extend(map(ImageRecord, refs, lats.tolist(), lons.tolist(), bearings,
                           years.tolist(), months.tolist()))
    except ValueError as exc:
        problems.append((len(records), 2, str(exc)))
    keys = list(zip(pids, refs))
    if len(set(keys)) < len(keys):
        first: dict = {}
        row = next(i for i, key in enumerate(keys) if first.setdefault(key, i) != i)
        problems.append((row, 3, f"duplicate (place_id, image_ref) = {keys[row]}"))
    if problems:
        row, _, message = min(problems)
        raise ManifestError(f"{path}: line {table.locate(row)[0] + 2}: {message}")
    grouped: dict[int, list[ImageRecord]] = {}
    for row, (pid, record) in enumerate(zip(pids, records)):
        record.row = row
        grouped.setdefault(pid, []).append(record)
    return grouped


def ingest_manifest(path: str | Path, allow_small_places: bool = False) -> PlacesDB:
    """Read a CSV manifest into a PlacesDB, grouping rows by place_id.

    The manifest is UTF-8 CSV with header
    ``place_id,image_ref,lat,lon,bearing,year,month`` (bearing may be
    empty); rows of blank fields are skipped. Places with fewer than 4
    images are rejected unless `allow_small_places` is set. Errors name the
    file and, for a row, its line: the row's index + 2, blank rows counted.
    """
    path = Path(path)
    try:
        grouped = _manifest_records(path)
    except csv.Error as exc:  # csv before Python 3.11 rejects a NUL
        raise ManifestError(f"{path}: {exc}") from exc
    db = PlacesDB([Place(pid, imgs) for pid, imgs in grouped.items()])
    try:
        if not allow_small_places:
            db.check_min_images()
        db.check_disjoint()
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    return db


def manifest_bytes(db: PlacesDB) -> bytes:
    """A PlacesDB in the manifest CSV format, UTF-8 encoded."""
    images = db.images()
    place_ids = [str(place.place_id) for place in db.places for _ in place.images]
    return table_bytes(MANIFEST_HEADER, [
        place_ids,
        [img.image_ref for img in images],
        [repr(img.lat) for img in images],
        [repr(img.lon) for img in images],
        ["" if img.bearing is None else repr(img.bearing) for img in images],
        [str(img.year) for img in images],
        [str(img.month) for img in images],
    ])


# ---------------------------------------------------------------------------
# Synthetic databases
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    """Perturbation model for synthetic image payloads.

    Each place owns a latent feature map; each of its images is the latent
    map circularly shifted by up to `max_shift` cells (viewpoint change),
    scaled by a per-image gain in [1-gain, 1+gain] (global illumination),
    plus zero-mean noise whose RMS amplitude over channels is
    `noise_sigma`. The noise is constant across spatial cells within a
    channel and heteroscedastic across channels: a seeded subset of
    channels ("unstable", fraction `unstable_fraction`) absorbs almost all
    of the noise budget, with per-channel stds `noise_contrast` times
    larger than the remaining stable channels. This mimics how appearance
    change hits some backbone channels far harder than others, and gives
    a trainable channel-weighting signal.

    `latent_blur` controls spatial smoothness of the latent maps (passes
    of a circular 3x3 box filter over white noise before a ReLU).
    """

    max_shift: int = 2
    gain: float = 0.3
    noise_sigma: float = 0.1
    latent_blur: int = 2
    unstable_fraction: float = 0.25
    noise_contrast: float = 30.0

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not (self.max_shift >= 0 and self.gain >= 0 and self.noise_sigma >= 0
                and self.latent_blur >= 0):
            raise ValueError("perturbation magnitudes and latent_blur must be nonnegative")
        if not 0.0 <= self.unstable_fraction <= 1.0:
            raise ValueError("unstable_fraction must be in [0, 1]")
        if not self.noise_contrast >= 1.0:
            raise ValueError("noise_contrast must be >= 1")


def _channel_noise_profile(cfg: SynthConfig, channels: int, rng: np.random.Generator) -> np.ndarray:
    """Per-channel noise stds with RMS exactly cfg.noise_sigma."""
    n_unstable = int(round(cfg.unstable_fraction * channels))
    scales = np.ones(channels)
    unstable = rng.permutation(channels)[:n_unstable]
    scales[unstable] = cfg.noise_contrast
    scales /= math.sqrt(float(np.mean(scales**2)))
    return cfg.noise_sigma * scales


def _box_blur_circular(m: np.ndarray, passes: int) -> np.ndarray:
    """Circular 3x3 box filter applied `passes` times along the two spatial axes.

    A pass sums, from zero, the slices of a one-cell wrap padding: the map
    circularly shifted by (dy, dx), for dy, then dx, in (-1, 0, 1).
    """
    h, w = m.shape[:2]
    wrap_y, wrap_x = np.arange(-1, h + 1) % h, np.arange(-1, w + 1) % w
    out = m
    for _ in range(passes):
        padded = out[wrap_y[:, None], wrap_x]
        acc = np.zeros_like(out)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                acc += padded[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
        out = acc / 9.0
    return out


def synth_places(
    num_places: int,
    images_per_place: int,
    shape: tuple[int, int, int] = (7, 7, 32),
    perturbation: SynthConfig | None = None,
    rng_seed: int = 0,
) -> PlacesDB:
    """Generate a deterministic synthetic PlacesDB with feature-map payloads.

    Places sit on a lat/lon grid one cell apart (so the DB is disjoint by
    construction); images of a place jitter by a couple of meters around
    the place center and carry distinct (year, month) stamps. The same
    seed always produces a bit-identical database (the order of the draws
    is in the README); a place's maps are built together from its draws.
    """
    if num_places < 1 or images_per_place < 1:
        raise ValueError("num_places and images_per_place must be >= 1")
    h, w, c = shape
    if h < 1 or w < 1 or c < 1:
        raise ValueError(f"invalid payload shape {shape}")
    cfg = perturbation if perturbation is not None else SynthConfig()
    if cfg.max_shift >= min(h, w):
        raise ValueError("max_shift must be smaller than the spatial extent")

    rng = np.random.default_rng(rng_seed)
    noise_std = _channel_noise_profile(cfg, c, rng)
    grid_cols = int(math.ceil(math.sqrt(num_places)))

    k = images_per_place
    stack = np.empty((num_places * k, h, w, c))
    years, months = [2010 + j // 12 for j in range(k)], [1 + j % 12 for j in range(k)]
    places = []
    for pid in range(num_places):
        latent = np.zeros(())
        while not np.any(latent > 0.0):  # tiny heavily-blurred maps can be all-zero after the ReLU
            noise = rng.standard_normal((h, w, c))
            latent = np.maximum(_box_blur_circular(noise, cfg.latent_blur), 0.0)
        draws = [(rng.integers(-cfg.max_shift, cfg.max_shift + 1),
                  rng.integers(-cfg.max_shift, cfg.max_shift + 1),
                  rng.uniform(-1.0, 1.0),
                  rng.standard_normal(c),
                  rng.uniform(-2e-5, 2e-5),  # ~2 m of GPS jitter, well inside the 25 m match radius
                  rng.uniform(-2e-5, 2e-5),
                  rng.uniform(0.0, 360.0)) for _ in range(k)]
        dy, dx, unit_gain, normal, jitter_lat, jitter_lon, bearing = map(np.array, zip(*draws))
        # image j is the latent rolled by (dy[j], dx[j]): cell (y, x) is latent[y - dy, x - dx]
        ys = (np.arange(h) - dy[:, None]) % h
        xs = (np.arange(w) - dx[:, None]) % w
        rows = stack[pid * k:(pid + 1) * k]
        gain = 1.0 + float(cfg.gain) * unit_gain
        np.multiply(latent[ys[:, :, None], xs[:, None, :]], gain[:, None, None, None], out=rows)
        rows += (normal * noise_std)[:, None, None, :]
        place_lat = SYNTH_ORIGIN[0] + (pid // grid_cols) * DEFAULT_CELL_DEG + 0.0005
        place_lon = SYNTH_ORIGIN[1] + (pid % grid_cols) * DEFAULT_CELL_DEG + 0.0005
        refs = [f"synth_{pid:05d}_{j:02d}" for j in range(k)]
        images = list(map(ImageRecord, refs, (place_lat + jitter_lat).tolist(),
                          (place_lon + jitter_lon).tolist(), bearing.tolist(), years, months))
        for j, img in enumerate(images):
            img.row = pid * k + j
        places.append(Place(pid, images))
    db = PlacesDB(places)
    db.attach_payloads(stack)
    return db


# ---------------------------------------------------------------------------
# P x K batch sampling
# ---------------------------------------------------------------------------

@dataclass
class BatchSpec:
    """How to draw balanced training batches: P places, K images each."""

    num_places: int
    images_per_place: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_places < 2:
            raise ValueError("need at least 2 places per batch for negatives")
        if self.images_per_place < 2:
            raise ValueError("need at least 2 images per place for positives")


def _shared_store(images: list[ImageRecord]) -> np.ndarray | TensorRows | None:
    """The payload store every image is a row of; None if one has no map or they differ."""
    store = images[0].store if images else None
    if store is None or any(img.store is not store for img in images):
        return None
    return store


def gather_payloads(images: list[ImageRecord]) -> np.ndarray:
    """The images' maps as one float64 (N, h, w, c) array: one `take` from their shared store.

    Converting float32 to float64 is exact, so the maps equal the stored values.
    """
    store, rows = _store_rows(images)
    return store.take(rows, axis=0).astype(np.float64, copy=False)


def _store_rows(images: list[ImageRecord]) -> tuple[np.ndarray | TensorRows, np.ndarray]:
    store = _shared_store(images)
    if store is None:
        bare = next((img for img in images if img.store is None), None)
        raise ValueError("images do not share one payload array" if bare is None
                         else f"image {bare.image_ref!r} has no payload")
    return store, np.fromiter((img.row for img in images), dtype=np.intp, count=len(images))


def stage_payloads(images: list[ImageRecord], place_ids, stage: Callable) -> np.ndarray:
    """`stage(gather_payloads(images))` for a row-wise stage, holding one block of maps at a time.

    Each block is the float64 maps of as many images as fit in
    PAYLOAD_BLOCK_BYTES (at least one): one `take` from the shared store
    (from a `TensorRows`, a read of the file), converted exactly. `stage`
    checks and transforms a block; its rows go into one preallocated
    output. A map the stage rejects with a FeatureMapError is named by its
    image_ref and place id (`place_ids[i]` is the place of `images[i]`).
    """
    store, rows = _store_rows(images)
    step = max(1, PAYLOAD_BLOCK_BYTES // (8 * math.prod(store.shape[1:])))
    out = None
    for lo in range(0, len(rows), step):
        block = store.take(rows[lo : lo + step], axis=0).astype(np.float64)
        try:
            result = stage(block)
        except FeatureMapError as exc:
            row = lo + exc.row
            where = f"image {images[row].image_ref!r} of place {place_ids[row]}"
            raise FeatureMapError(row, exc.reason, where) from None
        if out is None:
            out = np.empty((len(rows),) + result.shape[1:], dtype=result.dtype)
        out[lo : lo + step] = result
    return out


@dataclass
class Batch:
    """P*K sampled images, place by place, with their place ids as labels.

    `index` holds the images' positions in the sampler's `images`.
    """

    images: list[ImageRecord]
    labels: np.ndarray
    index: np.ndarray

    def feature_maps(self) -> np.ndarray:
        """The images' maps as one (P*K, h, w, c) float64 array."""
        return gather_payloads(self.images)


class BatchSampler:
    """Epoch-based sampler over a PlacesDB.

    An epoch is one seeded shuffle of all eligible places (those with at
    least K images), consumed in consecutive chunks of P without
    replacement; a trailing chunk smaller than P is dropped. Within a
    batch, each place contributes K of its images drawn without
    replacement. Two samplers built with the same spec produce identical
    batch sequences.
    """

    def __init__(self, db: PlacesDB, spec: BatchSpec):
        self.spec = spec
        self.eligible = [p for p in db.places if len(p) >= spec.images_per_place]
        if len(self.eligible) < spec.num_places:
            raise SamplerError(
                f"only {len(self.eligible)} places have >= {spec.images_per_place} "
                f"images, need {spec.num_places}"
            )
        for p in self.eligible:
            for img in p.images:
                if img.store is None:
                    raise SamplerError(f"place {p.place_id} image {img.image_ref!r} has no payload")
        # every eligible image, place by place; a batch's `index` points into it
        self.images = [img for p in self.eligible for img in p.images]
        sizes = [len(p) for p in self.eligible]
        self._first = np.cumsum([0] + sizes[:-1]).tolist()
        self._sizes = sizes
        # the place id of each of `images`
        self.labels = np.repeat(np.array([p.place_id for p in self.eligible], dtype=np.int64), sizes)
        self._rng = np.random.default_rng(spec.rng_seed)

    @property
    def batches_per_epoch(self) -> int:
        return len(self.eligible) // self.spec.num_places

    def epoch(self):
        """Yield the batches of one fresh epoch."""
        p, k = self.spec.num_places, self.spec.images_per_place
        order = self._rng.permutation(len(self.eligible))
        for start in range(0, self.batches_per_epoch * p, p):
            chunk = order[start : start + p]
            index = np.concatenate([
                self._first[i] + self._rng.choice(self._sizes[i], size=k, replace=False)
                for i in chunk.tolist()
            ])
            images = [self.images[j] for j in index.tolist()]
            yield Batch(images, self.labels[index], index)


def _query_split(place: Place, queries_per_place: int) -> int:
    """Index of a place's first held-out query: its last `queries_per_place` images."""
    if queries_per_place < 1:
        raise ValueError("queries_per_place must be >= 1")
    if len(place) <= queries_per_place:
        raise ValueError(f"place {place.place_id} has {len(place)} images, "
                         f"cannot hold out {queries_per_place} queries")
    return len(place) - queries_per_place


def query_reference_split(
    db: PlacesDB, queries_per_place: int = 2
) -> tuple[list[tuple[int, ImageRecord]], list[tuple[int, ImageRecord]]]:
    """Deterministically hold out the last images of each place as queries.

    Returns (queries, references) as lists of (place_id, record). Every
    place keeps at least one reference image.
    """
    queries, references = [], []
    for place in db.places:
        split = _query_split(place, queries_per_place)
        references.extend((place.place_id, img) for img in place.images[:split])
        queries.extend((place.place_id, img) for img in place.images[split:])
    return queries, references


def training_view(db: PlacesDB, queries_per_place: int = 2) -> PlacesDB:
    """The database with held-out query images removed from every place."""
    places = [Place(p.place_id, p.images[: _query_split(p, queries_per_place)]) for p in db.places]
    return PlacesDB(places)
