"""On-disk formats: binary tensors, descriptor sets, checkpoints.

Tensor files are little-endian and self-describing:

    magic   4 bytes  b"VPRK"
    version u16      format version (currently 1)
    dtype   u8       1 = float32 (the only defined tag)
    rank    u8
    dims    rank x u32
    payload row-major float32

Descriptor sets pair a rank-2 tensor file with a CSV sidecar
(``id,lat,lon,place_id``, one row per descriptor, same order).

Every file this module writes goes through `write_atomic_files`: a temp
file beside each target, then `os.replace`, so a write that fails partway
never leaves a truncated file under the final name. The files of one
descriptor set are all written before any is replaced, so a failed write
never pairs a new tensor with an old sidecar.

Checkpoints wrap a JSON header (config echo plus tensor names) followed
by one tensor blob per parameter:

    magic   4 bytes  b"VPRC"
    version u16
    hlen    u32      header length in bytes
    header  JSON, utf-8
    blobs   one VPRK tensor per header["tensors"] entry, in order
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregators import AGGREGATOR_KINDS
from .errors import FormatError

TENSOR_MAGIC = b"VPRK"
CHECKPOINT_MAGIC = b"VPRC"
FORMAT_VERSION = 1
DTYPE_F32 = 1


def tensor_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    head = TENSOR_MAGIC + struct.pack("<HBB", FORMAT_VERSION, DTYPE_F32, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + dims + arr.tobytes()


def _write_new(path: Path, data: bytes) -> None:
    with path.open("xb") as fh:
        fh.write(data)


def write_atomic_files(files: list[tuple[str | Path, bytes]]) -> None:
    """Write each (path, data) to a temp file in its path's directory, then rename them onto the paths.

    No path is replaced before every temp file is written, so if a write
    fails every path keeps its old content (or stays absent), and the temp
    files are removed.
    """
    moves = []
    try:
        for path, data in files:
            path = Path(path)
            moves.append((path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp"), path))
            _write_new(moves[-1][0], data)
        for tmp, path in moves:
            os.replace(tmp, path)
    finally:
        for tmp, _ in moves:
            tmp.unlink(missing_ok=True)


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write `data` to a temp file in `path`'s directory, then rename it onto `path`."""
    write_atomic_files([(path, data)])


def save_tensor(path: str | Path, arr: np.ndarray) -> None:
    write_atomic(path, tensor_bytes(arr))


def _check_left(fh, n: int, what: str) -> None:
    """Fail before any read when a seekable file has fewer than n bytes left."""
    pos = fh.tell()
    left = fh.seek(0, io.SEEK_END) - pos
    fh.seek(pos)
    if not 0 <= n <= left:
        raise FormatError(f"truncated file while reading {what}: {n} bytes declared, {left} left")


def _read_exact(fh, n: int, what: str) -> bytes:
    """n bytes from a seekable file; sizes beyond its end fail before any read."""
    _check_left(fh, n, what)
    return fh.read(n)


def read_tensor_stream(fh) -> np.ndarray:
    magic = _read_exact(fh, 4, "magic")
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
    version, dtype, rank = struct.unpack("<HBB", _read_exact(fh, 4, "header"))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if dtype != DTYPE_F32:
        raise FormatError(f"unsupported dtype tag {dtype}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
    count = math.prod(dims)  # exact: u32 dims may overflow an int64 product
    _check_left(fh, 4 * count, "payload")
    arr = np.empty(dims, dtype="<f4")
    if fh.readinto(arr) != arr.nbytes:  # straight into the array: no intermediate bytes copy
        raise FormatError("file shrank while reading payload")
    return arr


def load_tensor(path: str | Path) -> np.ndarray:
    with Path(path).open("rb") as fh:
        arr = read_tensor_stream(fh)
        if fh.read(1):
            raise FormatError("trailing bytes after tensor payload")
    return arr


# ---------------------------------------------------------------------------
# Descriptor sets (tensor + metadata sidecar)
# ---------------------------------------------------------------------------

SIDECAR_HEADER = ["id", "lat", "lon", "place_id"]


@dataclass
class DescriptorSet:
    """N descriptors with aligned retrieval metadata."""

    vectors: np.ndarray
    ids: list[str]
    lats: np.ndarray
    lons: np.ndarray
    place_ids: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.lats = np.asarray(self.lats, dtype=np.float64)
        self.lons = np.asarray(self.lons, dtype=np.float64)
        self.place_ids = np.asarray(self.place_ids, dtype=np.int64)
        n = self.vectors.shape[0]
        finite = np.isfinite(self.vectors)
        if not finite.all():
            raise ValueError(f"row {np.argwhere(~finite)[0, 0]}: descriptor has non-finite entries")
        if not (len(self.ids) == len(self.lats) == len(self.lons) == len(self.place_ids) == n):
            raise ValueError("metadata misaligned with vectors")
        # the rule of places.ImageRecord; NaN fails both comparisons
        for name, values, bound in (("lat", self.lats, 90.0), ("lon", self.lons, 180.0)):
            bad = np.flatnonzero(~((values >= -bound) & (values <= bound)))
            if len(bad):
                raise ValueError(f"row {bad[0]}: {name} {values[bad[0]]} outside "
                                 f"[{-bound:g}, {bound:g}]")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def take(self, index) -> "DescriptorSet":
        """The descriptors at the row indices `index`, with their metadata."""
        return DescriptorSet(self.vectors[index], [self.ids[i] for i in index], self.lats[index],
                             self.lons[index], self.place_ids[index])


def sidecar_path(tensor_path: str | Path) -> Path:
    return Path(tensor_path).with_suffix(".csv")


def save_descriptors(path: str | Path, ds: DescriptorSet) -> None:
    """The tensor and its sidecar, both written before either replaces its old file."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(SIDECAR_HEADER)
    writer.writerows(zip(ds.ids, map(repr, ds.lats.tolist()), map(repr, ds.lons.tolist()),
                         ds.place_ids.tolist()))
    write_atomic_files([(path, tensor_bytes(ds.vectors)),
                        (sidecar_path(path), text.getvalue().encode("utf-8"))])


def copy_descriptors(copies: list[tuple[str | Path, str | Path]]) -> None:
    """Byte copies of descriptor sets, tensor and sidecar, given (source, destination) tensor paths.

    Every source is read before any destination is written, so a destination
    that is also another copy's source still passes on its original bytes,
    and no destination is replaced before every one is written. A file is
    never copied onto itself.
    """
    files = [(Path(s), Path(d)) for src, dest in copies
             for s, d in ((src, dest), (sidecar_path(src), sidecar_path(dest)))]
    write_atomic_files([(dest, src.read_bytes()) for src, dest in files
                        if not (dest.exists() and os.path.samefile(src, dest))])


def load_descriptors(path: str | Path) -> DescriptorSet:
    vectors = load_tensor(path).astype(np.float64)
    if vectors.ndim != 2:
        raise FormatError(f"descriptor tensor must be rank 2, got rank {vectors.ndim}")
    ids, lats, lons, pids = [], [], [], []
    side = sidecar_path(path)
    with side.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != SIDECAR_HEADER:
                raise FormatError(f"bad sidecar header in {side}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(SIDECAR_HEADER):
                    raise FormatError(f"{side}: line {reader.line_num}: expected "
                                      f"{len(SIDECAR_HEADER)} fields, got {len(row)}")
                ids.append(row[0])
                lats.append(float(row[1]))
                lons.append(float(row[2]))
                pids.append(int(row[3]))
        except (ValueError, csv.Error) as exc:  # bad number, bad text
            raise FormatError(f"{side}: line {reader.line_num}: bad sidecar row: {exc}") from exc
    if len(ids) != vectors.shape[0]:
        raise FormatError(
            f"sidecar has {len(ids)} rows but tensor has {vectors.shape[0]}"
        )
    try:
        return DescriptorSet(vectors, ids, np.array(lats), np.array(lons), np.array(pids))
    except ValueError as exc:  # the vectors are checked first, then the sidecar's columns
        culprit = side if np.isfinite(vectors).all() else Path(path)
        raise FormatError(f"{culprit}: {exc}") from exc


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, kind: str, tensors: dict[str, np.ndarray], config: dict) -> None:
    header = {
        "format": FORMAT_VERSION,
        "aggregator": kind,
        "tensors": list(tensors.keys()),
        "config": config,
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<HI", FORMAT_VERSION, len(hbytes)))
    buf.write(hbytes)
    for name in header["tensors"]:
        buf.write(tensor_bytes(tensors[name]))
    write_atomic(path, buf.getvalue())


def _check_checkpoint_header(header) -> None:
    if not isinstance(header, dict) or not isinstance(header.get("config", {}), dict):
        raise FormatError("checkpoint header and its config must be JSON objects")
    names = header.get("tensors")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise FormatError('checkpoint header "tensors" must be a list of strings')
    if header.get("aggregator") not in (*AGGREGATOR_KINDS, "pca"):  # heads and PCA models
        raise FormatError(f"checkpoint for unknown kind {header.get('aggregator')!r}")


def load_checkpoint(path: str | Path) -> tuple[str, dict[str, np.ndarray], dict]:
    """Returns (aggregator kind, tensors by name, config echo)."""
    with Path(path).open("rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version, hlen = struct.unpack("<HI", _read_exact(fh, 6, "header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(_read_exact(fh, hlen, "json header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"corrupt checkpoint header: {exc}") from exc
        _check_checkpoint_header(header)
        tensors = {}
        for name in header["tensors"]:
            tensors[name] = read_tensor_stream(fh).astype(np.float64)
        if fh.read(1):
            raise FormatError("trailing bytes after checkpoint tensors")
    return header["aggregator"], tensors, header.get("config", {})
