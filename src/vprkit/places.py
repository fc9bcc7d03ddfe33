"""Place-centric data model, ingestion, synthesis and batch sampling.

A *place* is a set of images depicting one physical location, tagged with
a shared integer ID. A database is a set of places whose locations are
geographically disjoint at the resolution of a lat/lon grid cell
(0.001 degrees by default, roughly 100 meters).

Image payloads are dense feature maps (h, w, c); this module never touches
pixels. A database keeps all of them in one (M, h, w, c) array and each
image refers to its row, so a batch or an eval set is one `take`. Real
data enters through a CSV manifest, desk-scale experiments use the seeded
synthetic generator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ManifestError, SamplerError

DEFAULT_CELL_DEG = 0.001
MIN_IMAGES_PER_PLACE = 4

# Mean Earth radius (IUGG), meters.
EARTH_RADIUS_M = 6_371_008.8

MANIFEST_HEADER = ["place_id", "image_ref", "lat", "lon", "bearing", "year", "month"]


@dataclass
class ImageRecord:
    """One image of a place: an opaque reference plus capture metadata.

    Its (h, w, c) feature map, if any, is row `row` of `store`, the
    (M, h, w, c) payload array of its database.
    """

    image_ref: str
    lat: float
    lon: float
    bearing: float | None = None
    year: int = 0
    month: int = 1
    store: np.ndarray | None = field(default=None, repr=False, compare=False)
    row: int = 0

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
    def date_stamp(self) -> tuple[int, int]:
        return (self.year, self.month)

    @property
    def payload(self) -> np.ndarray | None:
        """The feature map as float64 (exact for a float32 store), or None."""
        return None if self.store is None else self.store[self.row].astype(np.float64)

    @payload.setter
    def payload(self, fmap: None) -> None:
        # maps enter only through a database's array (PlacesDB.attach_payloads)
        if fmap is not None:
            raise ValueError("a payload is a row of its database's array; only None detaches it")
        self.store = None


@dataclass
class Place:
    place_id: int
    images: list[ImageRecord]

    def __len__(self) -> int:
        return len(self.images)

    def distinct_dates(self) -> int:
        return len({img.date_stamp for img in self.images})

    def centroid(self) -> tuple[float, float]:
        lat = sum(img.lat for img in self.images) / len(self.images)
        lon = sum(img.lon for img in self.images) / len(self.images)
        return lat, lon


def grid_cell(lat: float, lon: float, cell_size_deg: float = DEFAULT_CELL_DEG) -> tuple[int, int]:
    """Quantize coordinates to a grid cell by floor division.

    Floor is used (rather than rounding) so the assignment is deterministic
    and independent of the order records arrive in.
    """
    return (math.floor(lat / cell_size_deg), math.floor(lon / cell_size_deg))


@dataclass
class PlacesDB:
    """Immutable collection of geographically disjoint places."""

    places: list[Place]
    cell_size_deg: float = DEFAULT_CELL_DEG

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
    def payloads(self) -> np.ndarray | None:
        """The (M, h, w, c) array whose rows the images' maps are; None unless all share one."""
        return _shared_store(self.images())

    def attach_payloads(self, stack: np.ndarray) -> None:
        """Make a rank-4 array the payloads, row i for the i-th image in place order.

        The array is kept as given (a float32 file load stays float32).
        """
        expected = self.num_images()
        if stack.ndim != 4 or stack.shape[0] != expected:
            raise ValueError(
                f"payload tensor has shape {stack.shape}, manifest lists {expected} maps"
            )
        for row, img in enumerate(self.images()):
            img.store, img.row = stack, row

    def payloads_in_order(self) -> np.ndarray | None:
        """The images' maps, row i for the i-th image in place order; None without `payloads`.

        This is `payloads` itself when the images are its rows in order, as
        in every database `attach_payloads` or `synth_places` built.
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
            cell = grid_cell(*p.centroid(), self.cell_size_deg)
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

def _parse_row(row: dict[str, str], line: int) -> tuple[int, ImageRecord]:
    try:
        place_id = int(row["place_id"])
        lat = float(row["lat"])
        lon = float(row["lon"])
        bearing_raw = (row.get("bearing") or "").strip()
        bearing = float(bearing_raw) if bearing_raw else None
        year = int(row["year"])
        month = int(row["month"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"cannot parse row: {exc}", line=line) from exc
    image_ref = (row.get("image_ref") or "").strip()
    if not image_ref:
        raise ManifestError("empty image_ref", line=line)
    try:
        rec = ImageRecord(image_ref, lat, lon, bearing=bearing, year=year, month=month)
    except ValueError as exc:
        raise ManifestError(str(exc), line=line) from exc
    return place_id, rec


def ingest_manifest(
    path: str | Path,
    cell_size_deg: float = DEFAULT_CELL_DEG,
    allow_small_places: bool = False,
) -> PlacesDB:
    """Read a CSV manifest into a PlacesDB, grouping rows by place_id.

    The manifest is UTF-8 CSV with header
    ``place_id,image_ref,lat,lon,bearing,year,month`` (bearing may be
    empty). Places with fewer than 4 images are rejected unless
    `allow_small_places` is set. Errors carry the offending line number.
    """
    path = Path(path)
    grouped: dict[int, list[ImageRecord]] = {}
    seen_refs: set[tuple[int, str]] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError("empty file, expected header", line=1)
        if [h.strip() for h in header] != MANIFEST_HEADER:
            raise ManifestError(
                f"bad header {header!r}, expected {','.join(MANIFEST_HEADER)}", line=1
            )
        for line, raw in enumerate(reader, start=2):
            if not raw or all(not c.strip() for c in raw):
                continue
            if len(raw) != len(MANIFEST_HEADER):
                raise ManifestError(
                    f"expected {len(MANIFEST_HEADER)} fields, got {len(raw)}", line=line
                )
            place_id, rec = _parse_row(dict(zip(MANIFEST_HEADER, raw)), line)
            key = (place_id, rec.image_ref)
            if key in seen_refs:
                raise ManifestError(
                    f"duplicate (place_id, image_ref) = {key}", line=line
                )
            seen_refs.add(key)
            grouped.setdefault(place_id, []).append(rec)

    places = [Place(pid, imgs) for pid, imgs in grouped.items()]
    db = PlacesDB(places, cell_size_deg=cell_size_deg)
    try:
        if not allow_small_places:
            db.check_min_images()
        db.check_disjoint()
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    return db


def write_manifest(db: PlacesDB, path: str | Path) -> None:
    """Write a PlacesDB back out in the manifest CSV format."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for place in db.places:
            for img in place.images:
                writer.writerow(
                    [
                        place.place_id,
                        img.image_ref,
                        repr(img.lat),
                        repr(img.lon),
                        "" if img.bearing is None else repr(img.bearing),
                        img.year,
                        img.month,
                    ]
                )


# ---------------------------------------------------------------------------
# Grid-based place construction
# ---------------------------------------------------------------------------

def grid_group(
    records: list[ImageRecord],
    cell_size_deg: float = DEFAULT_CELL_DEG,
    min_dates: int = MIN_IMAGES_PER_PLACE,
) -> PlacesDB:
    """Group loose image records into places by lat/lon grid cell.

    A cell becomes a place only when its records carry at least
    `min_dates` distinct (year, month) stamps, so every retained location
    was seen at enough different dates. Place ids are assigned in sorted
    cell order, which makes the grouping independent of input order.
    """
    if cell_size_deg <= 0:
        raise ValueError("cell_size_deg must be positive")
    if min_dates < 1:
        raise ValueError("min_dates must be >= 1")
    by_cell: dict[tuple[int, int], list[ImageRecord]] = {}
    for rec in records:
        by_cell.setdefault(grid_cell(rec.lat, rec.lon, cell_size_deg), []).append(rec)

    kept = [
        by_cell[cell]
        for cell in sorted(by_cell)
        if len({img.date_stamp for img in by_cell[cell]}) >= min_dates
    ]
    places = [Place(place_id, imgs) for place_id, imgs in enumerate(kept)]
    return PlacesDB(places, cell_size_deg=cell_size_deg)


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
        if self.max_shift < 0 or self.gain < 0 or self.noise_sigma < 0:
            raise ValueError("perturbation magnitudes must be nonnegative")
        if not 0.0 <= self.unstable_fraction <= 1.0:
            raise ValueError("unstable_fraction must be in [0, 1]")
        if self.noise_contrast < 1.0:
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
    """Circular 3x3 box filter applied `passes` times along the two spatial axes."""
    out = m
    for _ in range(passes):
        acc = np.zeros_like(out)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                acc += np.roll(np.roll(out, dy, axis=0), dx, axis=1)
        out = acc / 9.0
    return out


def synth_places(
    num_places: int,
    images_per_place: int,
    shape: tuple[int, int, int] = (7, 7, 32),
    perturbation: SynthConfig | None = None,
    rng_seed: int = 0,
    base_lat: float = 45.0,
    base_lon: float = 7.0,
) -> PlacesDB:
    """Generate a deterministic synthetic PlacesDB with feature-map payloads.

    Places sit on a lat/lon grid one cell apart (so the DB is disjoint by
    construction); images of a place jitter by a couple of meters around
    the place center and carry distinct (year, month) stamps. The same
    seed always produces a bit-identical database.
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

    stack = np.empty((num_places * images_per_place, h, w, c))
    places = []
    for pid in range(num_places):
        latent = np.maximum(_box_blur_circular(rng.standard_normal((h, w, c)), cfg.latent_blur), 0.0)
        while not np.any(latent > 0.0):
            # tiny heavily-blurred maps can collapse to all-zero after the
            # ReLU; redraw so every place has a usable (nonzero) latent
            latent = np.maximum(
                _box_blur_circular(rng.standard_normal((h, w, c)), cfg.latent_blur), 0.0
            )
        place_lat = base_lat + (pid // grid_cols) * DEFAULT_CELL_DEG + 0.0005
        place_lon = base_lon + (pid % grid_cols) * DEFAULT_CELL_DEG + 0.0005
        images = []
        for j in range(images_per_place):
            dy = int(rng.integers(-cfg.max_shift, cfg.max_shift + 1))
            dx = int(rng.integers(-cfg.max_shift, cfg.max_shift + 1))
            gain = 1.0 + cfg.gain * float(rng.uniform(-1.0, 1.0))
            channel_noise = rng.standard_normal(c) * noise_std
            row = pid * images_per_place + j
            stack[row] = np.roll(np.roll(latent, dy, axis=0), dx, axis=1) * gain
            stack[row] += channel_noise[None, None, :]
            # ~2 m of GPS jitter, well inside the 25 m match radius
            jitter_lat = float(rng.uniform(-2e-5, 2e-5))
            jitter_lon = float(rng.uniform(-2e-5, 2e-5))
            images.append(
                ImageRecord(
                    image_ref=f"synth_{pid:05d}_{j:02d}",
                    lat=place_lat + jitter_lat,
                    lon=place_lon + jitter_lon,
                    bearing=float(rng.uniform(0.0, 360.0)),
                    year=2010 + j // 12,
                    month=1 + j % 12,
                    store=stack,
                    row=row,
                )
            )
        places.append(Place(pid, images))
    return PlacesDB(places)


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

    @property
    def batch_size(self) -> int:
        return self.num_places * self.images_per_place


def _shared_store(images: list[ImageRecord]) -> np.ndarray | None:
    """The payload array every image is a row of; None if one has no map or they differ."""
    store = images[0].store if images else None
    if store is None or any(img.store is not store for img in images):
        return None
    return store


def gather_payloads(images: list[ImageRecord]) -> np.ndarray:
    """The images' maps as one float64 (N, h, w, c) array: one `take` from their shared store.

    Converting float32 to float64 is exact, so the maps equal the stored values.
    """
    store = _shared_store(images)
    if store is None:
        raise ValueError("images do not share one payload array")
    rows = np.fromiter((img.row for img in images), dtype=np.intp, count=len(images))
    return store.take(rows, axis=0).astype(np.float64, copy=False)


@dataclass
class Batch:
    """P*K sampled images, place by place, with their place ids as labels.

    `index` holds the images' positions in the sampler's `images`.
    """

    images: list[ImageRecord]
    labels: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_refs(self) -> list[str]:
        return [img.image_ref for img in self.images]

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
        self._place_ids = np.array([p.place_id for p in self.eligible], dtype=np.int64)
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
            yield Batch(images, np.repeat(self._place_ids[chunk], k), index)


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
    return PlacesDB(places, cell_size_deg=db.cell_size_deg)
