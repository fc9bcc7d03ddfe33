"""Place-centric data model, ingestion, synthesis and batch sampling.

A *place* is a set of images depicting one physical location, tagged with
a shared integer ID. A database is a set of places whose locations are
geographically disjoint at the resolution of a lat/lon grid cell
(0.001 degrees, roughly 100 meters).

A `PlacesDB` is columns, one entry per image, place by place, and one
store of the images' (h, w, c) feature maps (never pixels): an array
(`synth_places` builds one in float64) or a `tensorio.TensorRows` reading
the open payload file. Store row i is the map of the manifest's i-th data
row; a store enters through `PlacesDB.attach_payloads`. The code here works
on columns and arrays of image positions; `Place` and `ImageRecord` are
read-only views for callers that want objects. A batch is one `take` from
the store. `stage_payloads` and `PlacesDB.payload_blocks` walk the store
one block of rows at a time, by one rule (`_store_blocks`), so a loaded
database never holds all of its maps in memory. Real data enters
through a CSV manifest, desk-scale experiments use the seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FeatureMapError, ManifestError, SamplerError
from .tensorio import (FLOAT64, FLOAT64_OR_BLANK, INT64, TEXT, TensorRows, coordinate_checks,
                       range_problems, read_table, table_bytes)

DEFAULT_CELL_DEG = 0.001
MIN_IMAGES_PER_PLACE = 4
DEFAULT_QUERIES_PER_PLACE = 2  # each place's last images, held out as queries
# (lat, lon) of the south-west corner of the synthetic place grid
SYNTH_ORIGIN = (45.0, 7.0)
DEFAULT_SYNTH_SHAPE = (7, 7, 32)  # (height, width, channels) of a synthetic feature map

# Float64 bytes of the maps of one block of a store walk (`_store_blocks`). A
# block this size stays in cache, and it bounds the memory a stage over a whole
# set, or a payload file's write, needs beyond an in-memory store and the output.
PAYLOAD_BLOCK_BYTES = 1 << 20

# Mean Earth radius (IUGG), meters.
EARTH_RADIUS_M = 6_371_008.8

MANIFEST_COLUMNS = {"place_id": INT64, "image_ref": TEXT, "lat": FLOAT64, "lon": FLOAT64,
                    "bearing": FLOAT64_OR_BLANK, "year": INT64, "month": INT64}

# PlacesDB's columns, in constructor order, with their dtypes
COLUMNS = {"place_ids": np.int64, "image_refs": object, "lats": np.float64, "lons": np.float64,
           "bearings": np.float64, "years": np.int64, "months": np.int64, "rows": np.intp}


@dataclass(frozen=True)
class ImageRecord:
    """One image of a place, a read-only view of its database's columns; its (h, w, c)
    feature map, if any, is row `row` (its manifest data row) of the payload store `store`."""

    image_ref: str
    lat: float
    lon: float
    bearing: float | None
    year: int
    month: int
    store: np.ndarray | TensorRows | None = field(repr=False, compare=False)
    row: int

    @property
    def payload(self) -> np.ndarray | None:
        """The feature map as float64 (exact for a float32 store), or None."""
        return None if self.store is None else _widened(self.store.take([self.row], axis=0)[0])


@dataclass(frozen=True)
class Place:
    """One place's images, a read-only view of its database's columns."""

    place_id: int
    images: tuple[ImageRecord, ...]

    def __len__(self) -> int:
        return len(self.images)


def _widened(maps: np.ndarray) -> np.ndarray:
    """Maps as C-contiguous float64, exact for float32; a signalling NaN widens to a quiet one,
    silently. For the float64 views `ImageRecord.payload` and `Batch.feature_maps`; a stage
    takes blocks as stored, and its check decides their dtype."""
    with np.errstate(invalid="ignore"):
        return maps.astype(np.float64, order="C", copy=False)


def grid_cell(lat, lon) -> tuple:
    """Quantize coordinates (numbers or arrays) to DEFAULT_CELL_DEG grid cells by floor division.

    Floor is used (rather than rounding) so the assignment is deterministic
    and independent of the order records arrive in.
    """
    return tuple(np.floor(x / DEFAULT_CELL_DEG).astype(np.int64) for x in (lat, lon))


def _column_problems(lats, lons, bearings, blank, months) -> list[tuple[int, str]]:
    """`range_problems` of lat, lon, bearing (where not `blank`) and month, in that order."""
    return range_problems(coordinate_checks(lats, lons) + [
        ("bearing", bearings, blank | ((bearings >= 0.0) & (bearings < 360.0)), "[0, 360)"),
        ("month", months, (months >= 1) & (months <= 12), "[1, 12]")])


@dataclass(eq=False)
class PlacesDB:
    """Geographically disjoint places as columns: entry j of each is image j, place by place.

    A blank bearing is NaN; `rows[j]` is image j's data row in its manifest and
    its row of the (M, h, w, c) store `payloads` (an array, a `TensorRows` or
    None). The constructor checks the ranges and that each place's images are
    together: `sizes[p]` images from position `starts[p]`.
    """

    place_ids: np.ndarray
    image_refs: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    bearings: np.ndarray
    years: np.ndarray
    months: np.ndarray
    rows: np.ndarray
    payloads: np.ndarray | TensorRows | None = None
    starts: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, dtype in COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype))
        if len({len(getattr(self, name)) for name in COLUMNS}) > 1:
            raise ValueError("the columns differ in length")
        problems = _column_problems(self.lats, self.lons, self.bearings, np.isnan(self.bearings),
                                    self.months)
        if problems:
            raise ValueError(problems[0][1])
        ids = self.place_ids  # compared as integers: as float64, 2**62 + 1 == 2**62
        self.starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]][: len(ids)])
        self.sizes = np.diff(self.starts, append=len(ids))
        if len(set(ids[self.starts].tolist())) < len(self.starts):
            raise ValueError("place ids are not unique")

    def __len__(self) -> int:
        return len(self.starts)

    def num_images(self) -> int:
        return len(self.rows)

    def images(self) -> list[ImageRecord]:
        """Every image as an `ImageRecord` view, place by place."""
        bearings = [None if math.isnan(b) else b for b in self.bearings.tolist()]
        return list(map(ImageRecord, self.image_refs.tolist(), self.lats.tolist(),
                        self.lons.tolist(), bearings, self.years.tolist(), self.months.tolist(),
                        [self.payloads] * len(self.rows), self.rows.tolist()))

    @property
    def places(self) -> list[Place]:
        """Every place as a `Place` view, in order."""
        images, starts = self.images(), self.starts.tolist()
        return [Place(pid, tuple(images[lo : lo + n])) for pid, lo, n in
                zip(self.place_ids[starts].tolist(), starts, self.sizes.tolist())]

    def take(self, index) -> PlacesDB:
        """The images at the positions `index`, each place's still together, sharing `payloads`."""
        return PlacesDB(*(getattr(self, name)[index] for name in COLUMNS), self.payloads)

    def attach_payloads(self, stack: np.ndarray | TensorRows) -> None:
        """Make a rank-4 store the payloads: row i is the map of the image from manifest row i.

        The store is kept as given: an array (a float32 file load stays
        float32) or the `TensorRows` of an open payload file.
        """
        if stack.ndim != 4 or stack.shape[0] != len(self.rows):
            raise ValueError(f"payload tensor has shape {stack.shape}, "
                             f"manifest lists {len(self.rows)} maps")
        if not np.array_equal(np.sort(self.rows), np.arange(len(self.rows))):
            raise ValueError("the images' rows are not manifest rows 0 to M-1, each once")
        self.payloads = stack

    def payload_blocks(self):
        """Every image's map in place order, in the blocks of `_store_blocks` (PAYLOAD_BLOCK_BYTES
        of float64 maps, at least one map each), so that a writer holds one block at a time."""
        index = np.arange(len(self.rows))
        return _store_blocks(self, index, index)

    def check_disjoint(self) -> None:
        """Verify no two places share a grid cell (centroid-based).

        A centroid is summed by plain left-to-right float addition (`np.add.reduceat`
        pairs terms, which can move it across a cell edge). Grid-built databases are
        disjoint by construction; manifest-built ones are checked here so a
        validated DB always means physically distant places.
        """
        by_size = np.argsort(-self.sizes, kind="stable")
        starts, sizes = self.starts[by_size], self.sizes[by_size]
        coords, sums = np.stack([self.lats, self.lons], axis=1), np.zeros((len(sizes), 2))
        # at offset j, the places with more than j images are the first `live`
        for j, live in enumerate(np.searchsorted(-sizes, -np.arange(sizes.max(initial=0)))):
            sums[:live] += coords[starts[:live] + j]
        centroids = np.empty_like(sums)
        centroids[by_size] = sums / sizes[:, None]
        seen: dict[tuple[int, int], int] = {}
        cells = zip(*(cell.tolist() for cell in grid_cell(centroids[:, 0], centroids[:, 1])))
        for pid, cell in zip(self.place_ids[self.starts].tolist(), cells):
            if cell in seen:
                raise ValueError(f"places {seen[cell]} and {pid} share grid cell {cell}")
            seen[cell] = pid

    def check_min_images(self) -> None:
        small = np.flatnonzero(self.sizes < MIN_IMAGES_PER_PLACE)
        if len(small):
            i = small[0]
            raise ValueError(f"place {self.place_ids[self.starts[i]]} has {self.sizes[i]} images, "
                             f"needs >= {MIN_IMAGES_PER_PLACE}")


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

def _manifest_columns(path: Path) -> list:
    """The manifest's columns in file order, as PlacesDB takes them (less `rows`).

    The first row with a problem raises ManifestError naming the file and
    the line, with the row's first problem in the order of the checks:
    fields, numbers, image_ref, lat, lon, bearing, month, duplicates.
    """
    table = read_table(path, MANIFEST_COLUMNS, ManifestError, skip_blank_rows=True)
    pids, refs, lats, lons, bearings, years, months = table.columns.values()
    refs = [ref.strip() for ref in refs]
    problems = [(refs.index(""), "empty image_ref")] if "" in refs else []
    blank = np.array([b is None for b in bearings], bool)
    bearings = np.array(bearings, np.float64)  # a blank (None) is NaN
    problems += _column_problems(lats, lons, bearings, blank, months)
    keys = list(zip(pids.tolist(), refs))
    if len(set(keys)) < len(keys):
        first: dict = {}
        row = next(i for i, key in enumerate(keys) if first.setdefault(key, i) != i)
        problems.append((row, f"duplicate (place_id, image_ref) = {keys[row]}"))
    table.raise_first(problems)
    if not refs:
        raise ManifestError(f"{path}: the manifest lists no images")
    return [pids, np.array(refs, object), lats, lons, bearings, years, months]


def ingest_manifest(path: str | Path, allow_small_places: bool = False) -> PlacesDB:
    """Read a CSV manifest into a PlacesDB, grouping rows by place_id.

    The manifest is UTF-8 CSV with header
    ``place_id,image_ref,lat,lon,bearing,year,month`` (bearing may be
    empty); rows of blank fields are skipped, and a manifest must list at
    least one image. Places come in the order they first appear, each
    one's images in file order. Places with fewer than 4 images are
    rejected unless `allow_small_places` is set. Errors name the file and,
    for a row, the physical line its record ends on.
    """
    path = Path(path)
    columns = _manifest_columns(path)
    _, first, place = np.unique(columns[0], return_index=True, return_inverse=True)
    order = np.argsort(first[place], kind="stable")  # by each place's first row, then by row
    db = PlacesDB(*(column[order] for column in columns), order)
    try:
        if not allow_small_places:
            db.check_min_images()
        db.check_disjoint()
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    return db


def manifest_bytes(db: PlacesDB) -> bytes:
    """A PlacesDB in the manifest CSV format, UTF-8 encoded (a NaN bearing is blank)."""
    return table_bytes(MANIFEST_COLUMNS, [db.place_ids, db.image_refs, db.lats, db.lons,
                                          db.bearings, db.years, db.months])


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
    shape: tuple[int, int, int] = DEFAULT_SYNTH_SHAPE,
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
    n = num_places * k
    stack = np.empty((n, h, w, c))
    lats, lons, bearings = np.empty(n), np.empty(n), np.empty(n)
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
        place = slice(pid * k, (pid + 1) * k)
        gain = 1.0 + float(cfg.gain) * unit_gain
        np.multiply(latent[ys[:, :, None], xs[:, None, :]], gain[:, None, None, None],
                    out=stack[place])
        stack[place] += (normal * noise_std)[:, None, None, :]
        lats[place] = SYNTH_ORIGIN[0] + (pid // grid_cols) * DEFAULT_CELL_DEG + 0.0005 + jitter_lat
        lons[place] = SYNTH_ORIGIN[1] + (pid % grid_cols) * DEFAULT_CELL_DEG + 0.0005 + jitter_lon
        bearings[place] = bearing
    j = np.arange(k)
    db = PlacesDB(np.repeat(np.arange(num_places), k),
                  [f"synth_{pid:05d}_{i:02d}" for pid in range(num_places) for i in range(k)],
                  lats, lons, bearings, np.tile(2010 + j // 12, num_places),
                  np.tile(1 + j % 12, num_places), np.arange(n))
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


def _rows_per_block(store) -> int:
    """Maps of `store` in PAYLOAD_BLOCK_BYTES of float64, at least one."""
    return max(1, PAYLOAD_BLOCK_BYTES // (8 * math.prod(store.shape[1:])))


def _store_blocks(db: PlacesDB, index: np.ndarray, order: np.ndarray):
    """The maps of the images at the positions `index[order]`, in that order, in blocks of
    `_rows_per_block` maps; a database without payloads is a ValueError here, at the call,
    naming the image `index[0]`.

    A block is as stored: when the store is an array whose rows are those
    images' rows in order (a synthesized database, or a manifest that lists
    places whole), a view of it; else one `take` (from a `TensorRows`, a
    read). No block is held here once the next is asked for.
    """
    if db.payloads is None:
        raise ValueError(f"image {db.image_refs[index[0]]!r} has no payload" if len(index)
                         else "no images to stage")
    store, rows = db.payloads, db.rows[index[order]]
    step = _rows_per_block(store)
    in_order = isinstance(store, np.ndarray) and np.array_equal(rows, np.arange(len(store)))
    return (store[lo : lo + step] if in_order else store.take(rows[lo : lo + step], axis=0)
            for lo in range(0, len(rows), step))


def stage_payloads(db: PlacesDB, index, stage: Callable) -> np.ndarray:
    """The row-wise `stage` of the maps of the images at the positions `index`, block by block.

    The maps are taken in store-row order, so a payload file is read front
    to back, in the blocks of `_store_blocks`: as many images as fit in
    PAYLOAD_BLOCK_BYTES of float64 maps (at least one), passed to `stage`
    as stored, with no float64 copy of a float32 block made here. Their
    stage rows go into one output, in the order of `index`; a map the stage
    rejects with a FeatureMapError is named by its image_ref and place id.
    """
    index = np.asarray(index, np.intp)
    by_row = np.argsort(db.rows[index], kind="stable")
    blocks = _store_blocks(db, index, by_row)
    if not len(index):
        raise ValueError("no images to stage")
    out, lo = None, 0
    for block in blocks:
        at = by_row[lo : lo + len(block)]
        try:
            result = stage(block)
        except FeatureMapError as exc:
            row = int(at[exc.row])  # the map's row of the output
            where = f"image {db.image_refs[index[row]]!r} of place {db.place_ids[index[row]]}"
            raise FeatureMapError(row, exc.reason, where) from None
        if out is None:
            out = np.empty((len(index),) + result.shape[1:], dtype=result.dtype)
        out[at] = result
        lo += len(result)
        del block, result  # neither is held while the next block is taken
    return out


@dataclass
class Batch:
    """P*K sampled images, place by place, with their place ids as labels.

    `index` holds their positions in the sampler's `index`, `rows` their rows of `store`.
    """

    labels: np.ndarray
    index: np.ndarray
    rows: np.ndarray
    store: np.ndarray | TensorRows = field(repr=False)

    def feature_maps(self) -> np.ndarray:
        """The images' maps as one (P*K, h, w, c) float64 array (the conversion is exact)."""
        return _widened(self.store.take(self.rows, axis=0))


def _choice_bounds(sizes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """How numpy's `Generator.choice(n, k, replace=False)` draws for n = `sizes[p]`.

    Row p of the first array holds the inclusive bounds of the 2k - 1
    integers its Floyd branch takes: Floyd's j = n - k, ..., n - 1, then the
    shuffle's i = k - 1, ..., 1. The second is True where numpy shuffles a
    tail of the whole population instead (n > 10,000 and k > n // 50).
    """
    highs = np.empty((len(sizes), 2 * k - 1), np.int64)
    highs[:, :k] = sizes[:, None] + np.arange(-k, 0)
    highs[:, k:] = np.arange(k - 1, 0, -1)
    return highs, (sizes > 10_000) & (k > sizes // 50)


def _floyd_choices(rng: np.random.Generator, highs: np.ndarray) -> np.ndarray:
    """`rng.choice(n, k, replace=False)` by its Floyd branch for the place of each row of the
    bounds `highs` (`_choice_bounds`), in order and concatenated, from one `rng.integers` call.

    Per place, numpy takes the 2k - 1 integers as `integers` takes them:
    Floyd's values, where a value the place already holds becomes its j,
    then the shuffle's positions, where position i swaps with the drawn one.
    Here all the places' integers come from one call, in that order, and
    the values and the swaps are applied to every place at once, one
    position at a time.
    """
    k = (highs.shape[1] + 1) // 2
    draws = rng.integers(0, highs, endpoint=True).T.copy()  # row t: every place's t-th integer
    out = draws[:k]  # row i: every place's value at position i
    for t in range(1, k):
        np.copyto(out[t], highs[:, t], where=(out[:t] == out[t]).any(axis=0))
    flat = out.ravel()  # a view: the drawn position j of place p is flat[j * P + p]
    for i, swap in zip(range(k - 1, 0, -1), draws[k:] * len(highs) + np.arange(len(highs))):
        swapped = flat[swap]
        flat[swap] = out[i]
        out[i] = swapped
    return out.T.ravel()


def _choices(rng: np.random.Generator, highs: np.ndarray, tail: list[int]) -> np.ndarray:
    """`rng.choice(n, k, replace=False)` for the place of each row of the bounds `highs`
    (`_choice_bounds`), in order and concatenated, with the same values and the same
    generator state after.

    A place that numpy draws by a tail shuffle, at a row listed in `tail`,
    is drawn by `rng.choice` itself, at its turn; each run of places between
    two of them by one `_floyd_choices` call.
    """
    k = (highs.shape[1] + 1) // 2
    parts = []
    for lo, hi in zip([0, *(p + 1 for p in tail)], [*tail, len(highs)]):
        parts.append(_floyd_choices(rng, highs[lo:hi]))
        if hi < len(highs):  # n is the last Floyd bound plus one
            parts.append(rng.choice(highs[hi, k - 1] + 1, k, replace=False))
    return np.concatenate(parts)


class BatchSampler:
    """Epoch-based sampler over a PlacesDB.

    An epoch is one seeded shuffle of all eligible places (those with at
    least K images), consumed in consecutive chunks of P without
    replacement; a trailing chunk smaller than P is dropped. Within a
    batch, each place contributes K of its images drawn without
    replacement: the draws of `rng.choice(n, K, replace=False)` per place,
    in chunk order, made with one generator call per batch (`_choices`;
    the order is in the README).
    Two samplers built with the same spec produce identical batch sequences.
    """

    def __init__(self, db: PlacesDB, spec: BatchSpec):
        self.spec = spec
        eligible = np.flatnonzero(db.sizes >= spec.images_per_place)
        if len(eligible) < spec.num_places:
            raise SamplerError(
                f"only {len(eligible)} places have >= {spec.images_per_place} "
                f"images, need {spec.num_places}"
            )
        # the positions of every eligible image, place by place; a batch's `index` points into it
        self.index = np.flatnonzero(np.repeat(db.sizes >= spec.images_per_place, db.sizes))
        k, sizes = spec.images_per_place, db.sizes[eligible]
        self._first = np.cumsum(sizes) - sizes
        self._highs, self._tail = _choice_bounds(sizes, k)
        if db.payloads is None:
            i = self.index[0]
            raise SamplerError(f"place {db.place_ids[i]} image {db.image_refs[i]!r} has no payload")
        self.store, self.rows = db.payloads, db.rows[self.index]
        # the place id of each image of `index`
        self.labels = db.place_ids[self.index]
        self._rng = np.random.default_rng(spec.rng_seed)

    @property
    def batches_per_epoch(self) -> int:
        return len(self._first) // self.spec.num_places

    def epoch(self):
        """Yield the batches of one fresh epoch."""
        p, k = self.spec.num_places, self.spec.images_per_place
        order = self._rng.permutation(len(self._first))
        for start in range(0, self.batches_per_epoch * p, p):
            chunk = order[start : start + p]
            tail = self._tail[chunk].nonzero()[0].tolist()
            drawn = _choices(self._rng, self._highs[chunk], tail)
            index = (self._first[chunk, None] + drawn.reshape(p, k)).ravel()
            yield Batch(self.labels[index], index, self.rows[index], self.store)


def split_index(db: PlacesDB,
                queries_per_place: int = DEFAULT_QUERIES_PER_PLACE) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the queries, each place's last images, and of the references.

    Every place keeps at least one reference image.
    """
    if queries_per_place < 1:
        raise ValueError("queries_per_place must be >= 1")
    small = np.flatnonzero(db.sizes <= queries_per_place)
    if len(small):
        i = small[0]
        raise ValueError(f"place {db.place_ids[db.starts[i]]} has {db.sizes[i]} images, "
                         f"cannot hold out {queries_per_place} queries")
    ends = np.repeat(db.starts + db.sizes, db.sizes)
    query = np.arange(len(ends)) >= ends - queries_per_place
    return np.flatnonzero(query), np.flatnonzero(~query)


def query_reference_split(db: PlacesDB,
                          queries_per_place: int = DEFAULT_QUERIES_PER_PLACE) -> tuple[list, list]:
    """The queries and references of `split_index` as lists of (place_id, ImageRecord)."""
    images, pids = db.images(), db.place_ids.tolist()
    return tuple([(pids[i], images[i]) for i in index.tolist()]
                 for index in split_index(db, queries_per_place))


def training_view(db: PlacesDB, queries_per_place: int = DEFAULT_QUERIES_PER_PLACE) -> PlacesDB:
    """The database with held-out query images removed from every place."""
    return db.take(split_index(db, queries_per_place)[1])
