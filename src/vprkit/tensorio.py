"""On-disk formats: binary tensors, descriptor sets, checkpoints.

Tensor files are little-endian and self-describing:

    magic   4 bytes  b"VPRK"
    version u16      format version (currently 1)
    dtype   u8       1 = float32 (the only defined tag)
    rank    u8
    dims    rank x u32
    payload row-major float32

A tensor file is opened as a `TensorRows`, which checks it and keeps it
open; `load_tensor` reads it whole, `TensorRows.take` reads only the rows
asked for, so a database's feature maps (`payloads.vprk`) never need to
be in memory all at once. Every payload read, of a whole tensor or of a
run of rows, goes through `read_into`.

Descriptor sets pair a rank-2 tensor file with a CSV sidecar
(``id,lat,lon,place_id``, one row per descriptor, same order). Sidecars
and manifests are read by `read_table`, column by column in C (a text the
C reader fails on is read again by one `csv` pass, which finds its first
bad row), and written by `table_bytes`, column by column, both by the kinds
a format declares. One rule checks both headers, and `Table.raise_first`
names a row's first problem by the physical line of its record.

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

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, VprkitError

TENSOR_MAGIC = b"VPRK"
CHECKPOINT_MAGIC = b"VPRC"
FORMAT_VERSION = 1
DTYPE_F32 = 1
F32 = np.dtype("<f4")  # the payload's in-memory dtype


# Bytes of the float32 buffer a float64 read converts from, one block at a time.
READ_BLOCK_BYTES = 1 << 16


def tensor_bytes(arr: np.ndarray) -> memoryview:
    """A tensor file's bytes in one buffer, the payload converted to float32 straight into it.

    A scalar is written as a rank-1 tensor of one entry.
    """
    arr = np.atleast_1d(arr)
    head = TENSOR_MAGIC + struct.pack(f"<HBB{arr.ndim}I", FORMAT_VERSION, DTYPE_F32, arr.ndim,
                                      *arr.shape)
    blob = np.empty(len(head) + 4 * arr.size, np.uint8)
    blob[:len(head)] = np.frombuffer(head, np.uint8)
    blob[len(head):].view("<f4").reshape(arr.shape)[...] = arr
    return memoryview(blob)


def _write_new(path: Path, parts) -> None:
    with path.open("xb") as fh:
        for part in parts:
            fh.write(part)


def write_atomic_files(files: list[tuple[str | Path, list]]) -> None:
    """Write each (path, parts) to a temp file in its path's directory, then rename them onto the paths.

    `parts` are the file's bytes as buffers, written in order. No path is
    replaced before every temp file is written, so if a write fails every
    path keeps its old content (or stays absent), and the temp files are
    removed.
    """
    moves = []
    try:
        for path, parts in files:
            path = Path(path)
            moves.append((path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp"), path))
            _write_new(moves[-1][0], parts)
        for tmp, path in moves:
            os.replace(tmp, path)
    finally:
        for tmp, _ in moves:
            tmp.unlink(missing_ok=True)


def write_atomic(path: str | Path, *parts) -> None:
    """Write the buffers `parts` to a temp file beside `path`, then rename it onto `path`."""
    write_atomic_files([(path, parts)])


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


def _read_dims(fh) -> tuple[int, ...]:
    """A tensor's header from a seekable file, checked up to the payload's size; returns its dims."""
    magic = _read_exact(fh, 4, "magic")
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
    version, tag, rank = struct.unpack("<HBB", _read_exact(fh, 4, "header"))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if tag != DTYPE_F32:
        raise FormatError(f"unsupported dtype tag {tag}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
    _check_left(fh, 4 * math.prod(dims), "payload")  # exact: u32 dims may overflow an int64 product
    try:  # numpy's rank and size limits, checked without allocating: a shape with a 0 is empty
        np.empty(dims if 0 in dims else (0,) * rank, np.float64)
    except ValueError as exc:
        raise FormatError(f"unsupported tensor of rank {rank}, shape {dims}: {exc}") from None
    return dims


@contextlib.contextmanager
def _named(path: str | Path):
    """A FormatError raised in the block is raised again with the file's path in front."""
    try:
        yield
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_into(fh, out: np.ndarray) -> np.ndarray:
    """`out`, a C-contiguous float32 or float64 array, filled from the file's next float32 bytes.

    A little-endian float32 array is read straight into, any other through
    one float32 buffer of at most READ_BLOCK_BYTES.
    """
    flat = out.reshape(-1)
    direct = out.dtype == F32  # no intermediate copy at all
    buf = flat if direct else np.empty(min(flat.size, READ_BLOCK_BYTES // 4), F32)
    for start in range(0, flat.size, buf.size or 1):
        part = buf if direct else buf[:flat.size - start]
        if fh.readinto(part) != part.nbytes:
            raise FormatError("file shrank while reading payload")
        if not direct:
            with np.errstate(invalid="ignore"):  # a signalling NaN widens to a quiet one
                flat[start:start + part.size] = part
    return out


def load_tensor(path: str | Path, dtype=F32) -> np.ndarray:
    """A tensor file's array as `dtype`, the stored float32 or float64 (see `TensorRows`)."""
    with TensorRows(path) as rows:
        return rows.read(dtype)


class TensorRows:
    """A tensor file held open, read whole or row by row along its first axis.

    Opening checks the file's header and that its size is exactly the
    header and payload (a FormatError, then or at a read, names the file),
    and keeps the checked file open: every later read comes from it, even
    if its path is replaced. `close` (or leaving a `with` block) releases it.
    """

    def __init__(self, path: str | Path):
        self._path = path
        self._fh = Path(path).open("rb")
        try:
            with _named(path):
                self.shape = _read_dims(self._fh)
                self._start = self._fh.tell()
                self._row_bytes = 4 * math.prod(self.shape[1:])
                if self._fh.seek(0, io.SEEK_END) > self._start + 4 * math.prod(self.shape):
                    raise FormatError("trailing bytes after tensor payload")
        except BaseException:
            self._fh.close()
            raise

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def take(self, rows, axis: int = 0) -> np.ndarray:
        """The float32 rows at the indices `rows`, in that order: one read per run of consecutive rows."""
        if axis != 0 or not self.shape:
            raise ValueError("rows are taken along the first axis of a tensor of rank >= 1")
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        if len(rows) and not (0 <= rows.min() and rows.max() < self.shape[0]):
            raise IndexError(f"row index out of range for {self.shape[0]} rows")
        out = np.empty((len(rows), *self.shape[1:]), F32)
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist()  # rows are >= 0
        with _named(self._path):
            for lo, hi in zip(starts, [*starts[1:], len(rows)]):
                self._fh.seek(self._start + int(rows[lo]) * self._row_bytes)
                read_into(self._fh, out[lo:hi])
        return out

    def read(self, dtype=F32) -> np.ndarray:
        """The whole tensor as `dtype` (see `read_into`)."""
        self._fh.seek(self._start)
        with _named(self._path):
            return read_into(self._fh, np.empty(self.shape, dtype))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TensorRows":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# CSV tables (descriptor sidecars, manifests)
# ---------------------------------------------------------------------------

# Column kinds of `read_table` and `table_bytes`. Numbers are ASCII decimal or exponent spellings
# (floats also take inf and nan) with optional sign and surrounding whitespace.
TEXT, INT64, FLOAT64, FLOAT64_OR_BLANK = "text", "int64", "float64", "float64 or blank"
_STORED_AS = {TEXT: object, INT64: np.int64, FLOAT64: np.float64, FLOAT64_OR_BLANK: object}
# how `table_bytes` writes a value of each kind, text that `read_table` reads back bit for bit
_WRITTEN_AS = {TEXT: str, INT64: str, FLOAT64: repr,
               FLOAT64_OR_BLANK: lambda value: "" if math.isnan(value) else repr(value)}
_LINE_BREAK = re.compile(rb"\r\n?|\n")
_NOT_LINE_BREAK = re.compile(r"[^\r\n]")
_QUOTED = re.compile(r'[,"\r\n]')  # a field holding one of these is quoted


def _quote(field: str) -> str:
    return '"' + field.replace('"', '""') + '"' if _QUOTED.search(field) else field


def table_bytes(columns: dict[str, str], values: list) -> bytes:
    """UTF-8 CSV of columns of `values`, each written by its kind, as `csv.writer` writes it.

    `columns` maps each column's name to its kind, as `read_table` takes it.
    A field holding `,`, `"`, CR or LF is quoted, its quotes doubled, and
    every row ends in CR LF.
    """
    texts = [list(map(_WRITTEN_AS[kind], np.asarray(column, object).tolist()))
             for column, kind in zip(values, columns.values())]
    texts = [list(map(_quote, column)) if _QUOTED.search("".join(column)) else column
             for column in texts]
    rows = map(",".join, zip(*texts))
    return "\r\n".join([",".join(map(_quote, columns)), *rows, ""]).encode("utf-8")


@contextlib.contextmanager
def _csv_pass(text: str, path: str | Path, error: type[VprkitError]):
    """csv's field size limit raised to the length of `text` (no field is longer), then restored;
    a csv.Error (csv before Python 3.11 rejects a NUL) raises `error` naming the file."""
    limit = csv.field_size_limit(max(csv.field_size_limit(), len(text)))
    try:
        yield
    except csv.Error as exc:
        raise error(f"{path}: {exc}") from exc
    finally:
        csv.field_size_limit(limit)


def read_text(path: str | Path, error: type[VprkitError]) -> str:
    """A file's UTF-8 text; other bytes raise `error`, naming the file and their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + len(_LINE_BREAK.findall(data, 0, exc.start))
        raise error(f"{path}: line {line}: not UTF-8: {exc}") from None


def _field_value(text: str, kind: str):
    """One field by the rule of its kind; a number the C reader rejects raises ValueError.

    Numbers are what Python's `int` and `float` take, less `_` separators
    and non-ASCII digits, and an INT64 must fit in int64. A blank
    FLOAT64_OR_BLANK is None.
    """
    if kind == TEXT:
        return text
    word = text.strip()
    if kind == FLOAT64_OR_BLANK:
        if not word:
            return None
        text = word
    if not word.isascii() or "_" in word:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}" if kind == INT64
                         else f"could not convert string to float: {text!r}")
    if kind != INT64:
        return float(text)
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer {word} does not fit in int64")
    return value


def _records(text: str, skip_blank_rows: bool):
    """(line, fields) of each non-empty record after the header; a record ends on physical `line`.

    With `skip_blank_rows`, records whose fields are all blank are skipped as well.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader, None)
    for fields in reader:
        if fields and not (skip_blank_rows and not "".join(fields).strip()):
            yield reader.line_num, fields


@dataclass
class Table:
    """A CSV file's data rows by column, up to `fault`, (row, message) of the first row that failed.

    INT64 and FLOAT64 columns are arrays; TEXT and FLOAT64_OR_BLANK columns
    are lists (a blank float is None).
    """

    path: str | Path
    error: type[VprkitError]
    text: str
    skip_blank_rows: bool
    columns: dict
    fault: tuple[int, str] | None

    def raise_first(self, problems: list[tuple[int, str]]) -> None:
        """Raise `error` for the first row with a problem, if there is one.

        `problems` are the caller's (row, message) in the order of its
        checks, all in rows before the fault's; a row's first problem is
        raised. The message is `<file>: line N: <problem>`, N the physical
        line the row's record ends on, found by tokenising the text again.
        """
        problems = [*problems, self.fault] if self.fault else problems
        if problems:
            row, _, message = min((row, rank, message)
                                  for rank, (row, message) in enumerate(problems))
            with _csv_pass(self.text, self.path, self.error):
                records = _records(self.text, self.skip_blank_rows)
                line, _ = next(itertools.islice(records, row, None))
            raise self.error(f"{self.path}: line {line}: {message}")


def read_table(path: str | Path, columns: dict[str, str], error: type[VprkitError],
               skip_blank_rows: bool = False) -> Table:
    """A UTF-8 CSV file's data rows as typed columns, tokenised and converted by numpy's C reader.

    `columns` maps each column's name to its kind, in file order; the
    header must hold those names, each stripped of surrounding whitespace,
    or `error` names the file and line 1. Empty lines are skipped. A
    quoted field may hold commas, doubled quotes and line breaks; `#` is
    text. Only when the C reader fails does `_scan` read the text again, in
    one `csv` pass: the first row with another field count, or a field its
    kind rejects, ends the columns as the table's `fault`.
    `skip_blank_rows` skips rows of blank fields in that pass (the C reader
    rejects them if a column is a number). Fields may be of any length.
    """
    text = read_text(path, error)
    fh = io.StringIO(text, newline="")
    with _csv_pass(text, path, error):
        header = next(csv.reader(fh), None)
        if header is None:
            raise error(f"{path}: line 1: empty file, expected header")
        if [name.strip() for name in header] != list(columns):
            raise error(f"{path}: line 1: bad header {header!r}, expected {','.join(columns)}")
        dtype = np.dtype([(name, _STORED_AS[kind]) for name, kind in columns.items()])
        try:
            with warnings.catch_warnings():
                # numpy < 2 reads an int field such as "3.0" through float, with this warning
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.empty(0, dtype)  # header only: no call that would warn of no data
                if _NOT_LINE_BREAK.search(text, fh.tell()):
                    rows = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                                      comments=None, ndmin=1)
            table, fault = {name: _column(rows[name], kind) for name, kind in columns.items()}, None
        except (ValueError, DeprecationWarning):
            table, fault = _scan(text, columns, skip_blank_rows)
    return Table(path, error, text, skip_blank_rows, table, fault)


def _column(fields: np.ndarray, kind: str):
    """A column of `read_table` from the fields the C reader stored (FLOAT64_OR_BLANK as text)."""
    if kind != FLOAT64_OR_BLANK:
        return fields.tolist() if kind == TEXT else fields
    return [_field_value(field, kind) for field in fields.tolist()]


def _scan(text: str, columns: dict[str, str], skip_blank_rows: bool) -> tuple[dict, tuple | None]:
    """The columns up to the first row that failed, and (row, message) of that row or None.

    Fields are read one by one by `_field_value`'s rules.
    """
    values, fault = [], None
    for row, (_, fields) in enumerate(_records(text, skip_blank_rows)):
        if len(fields) != len(columns):
            fault = (row, f"expected {len(columns)} fields, got {len(fields)}")
            break
        try:
            values.append([_field_value(f, kind) for f, kind in zip(fields, columns.values())])
        except ValueError as err:
            fault = (row, f"cannot parse row: {err}")
            break
    table = {}
    by_column = zip(*values) if values else [()] * len(columns)
    for (name, kind), column in zip(columns.items(), by_column):
        stored_as = _STORED_AS[kind]
        table[name] = list(column) if stored_as is object else np.array(column, dtype=stored_as)
    return table, fault


# ---------------------------------------------------------------------------
# Descriptor sets (tensor + metadata sidecar)
# ---------------------------------------------------------------------------

SIDECAR_COLUMNS = {"id": TEXT, "lat": FLOAT64, "lon": FLOAT64, "place_id": INT64}


def range_problems(checks) -> list[tuple[int, str]]:
    """(row, message) of the first row that fails each (name, values, in_range, span) check."""
    return [(int(bad[0]), f"{name} {values[bad[0]]} outside {span}")
            for name, values, in_range, span in checks for bad in [np.flatnonzero(~in_range)]
            if len(bad)]


def coordinate_checks(lats: np.ndarray, lons: np.ndarray) -> list[tuple]:
    """`range_problems` checks of latitudes and longitudes; NaN fails both comparisons."""
    return [("lat", lats, (lats >= -90.0) & (lats <= 90.0), "[-90, 90]"),
            ("lon", lons, (lons >= -180.0) & (lons <= 180.0), "[-180, 180]")]


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
        # the sum is finite unless an entry is not (or it leaves float64's range): no (N, D) mask
        if not (np.isfinite(self.vectors.sum()) or np.isfinite(self.vectors).all()):
            row = np.argwhere(~np.isfinite(self.vectors))[0, 0]
            raise ValueError(f"row {row}: descriptor has non-finite entries")
        if not (len(self.ids) == len(self.lats) == len(self.lons) == len(self.place_ids) == n):
            raise ValueError("metadata misaligned with vectors")
        problems = range_problems(coordinate_checks(self.lats, self.lons))
        if problems:
            raise ValueError("row {}: {}".format(*problems[0]))

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
    sidecar = table_bytes(SIDECAR_COLUMNS, [ds.ids, ds.lats, ds.lons, ds.place_ids])
    write_atomic_files([(path, [tensor_bytes(ds.vectors)]), (sidecar_path(path), [sidecar])])


def copy_descriptors(copies: list[tuple[str | Path, str | Path]]) -> None:
    """Byte copies of descriptor sets, tensor and sidecar, given (source, destination) tensor paths.

    Every source is read before any destination is written, so a destination
    that is also another copy's source still passes on its original bytes,
    and no destination is replaced before every one is written. A file is
    never copied onto itself.
    """
    files = [(Path(s), Path(d)) for src, dest in copies
             for s, d in ((src, dest), (sidecar_path(src), sidecar_path(dest)))]
    write_atomic_files([(dest, [src.read_bytes()]) for src, dest in files
                        if not (dest.exists() and os.path.samefile(src, dest))])


def load_descriptors(path: str | Path) -> DescriptorSet:
    """A descriptor set; a FormatError names the file and, for a sidecar row, its line."""
    vectors = load_tensor(path, np.float64)
    if vectors.ndim != 2:
        raise FormatError(f"{path}: descriptor tensor must be rank 2, got rank {vectors.ndim}")
    side = sidecar_path(path)
    table = read_table(side, SIDECAR_COLUMNS, FormatError)
    ids, lats, lons, pids = table.columns.values()
    table.raise_first(range_problems(coordinate_checks(lats, lons)))
    if len(ids) != vectors.shape[0]:
        raise FormatError(f"{side}: sidecar has {len(ids)} rows but tensor {path} has "
                          f"{vectors.shape[0]}")
    try:
        return DescriptorSet(vectors, ids, lats, lons, pids)
    except ValueError as exc:  # the sidecar is checked: only a non-finite vector is left
        raise FormatError(f"{path}: {exc}") from exc


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
    write_atomic(path, CHECKPOINT_MAGIC + struct.pack("<HI", FORMAT_VERSION, len(hbytes)) + hbytes,
                 *(tensor_bytes(tensors[name]) for name in header["tensors"]))


def _check_checkpoint_header(header) -> None:
    if not isinstance(header, dict) or not isinstance(header.get("config", {}), dict):
        raise FormatError("checkpoint header and its config must be JSON objects")
    names = header.get("tensors")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise FormatError('checkpoint header "tensors" must be a list of strings')
    if not isinstance(header.get("aggregator"), str):  # its loader checks the kind itself
        raise FormatError(f"checkpoint for unknown kind {header.get('aggregator')!r}")


def load_checkpoint(path: str | Path) -> tuple[str, dict[str, np.ndarray], dict]:
    """Returns (aggregator kind, tensors by name, config echo); a FormatError names the file."""
    with _named(path), Path(path).open("rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version, hlen = struct.unpack("<HI", _read_exact(fh, 6, "header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(_read_exact(fh, hlen, "json header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"corrupt checkpoint header: {exc}") from exc
        _check_checkpoint_header(header)
        tensors = {}
        for name in header["tensors"]:
            tensors[name] = read_into(fh, np.empty(_read_dims(fh), np.float64))
        if fh.read(1):
            raise FormatError("trailing bytes after checkpoint tensors")
    return header["aggregator"], tensors, header.get("config", {})
