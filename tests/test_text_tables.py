"""The column readers of manifests and descriptor sidecars against the row loops they replaced.

`old_manifest` and `old_sidecar` are the row-at-a-time readers that the C
column reader replaced, kept here as oracles with their number parsing as
a parameter. `old_manifest` is self-contained: it checks each row's ranges,
groups rows by place id in a dict, and sums each centroid by plain
left-to-right float addition, where `ingest_manifest` works on columns.
With Python's `int` and `float` they read as before; with `ascii_int` and
`ascii_float` they apply the column reader's rule, which differs only
where a number is spelled with `_` separators or non-ASCII digits, or an
integer does not fit in int64. Every generated file must
load to the same values, bit for bit and in the same order, or fail with
the same error class, line and message as the oracle under the new rule
(a manifest's message now starts with its path); and the oracle under the
old rule must agree with it unless the file holds such a number. Both
oracles name a bad row by the physical line csv reports for its record,
check a header's names stripped, and check a row's ranges as they read it.
"""

import csv
import io
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vprkit.errors import FormatError, ManifestError, VprkitError
from vprkit.places import (
    MANIFEST_HEADER,
    ingest_manifest,
    manifest_bytes,
    synth_places,
)
from vprkit.tensorio import (
    CHECKPOINT_MAGIC,
    FORMAT_VERSION,
    SIDECAR_HEADER,
    DescriptorSet,
    load_checkpoint,
    load_descriptors,
    load_tensor,
    save_checkpoint,
    save_descriptors,
    save_tensor,
    sidecar_path,
)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# Oracles: the row loops of the readers before the column reader
# ---------------------------------------------------------------------------

class OldManifestError(Exception):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


def ascii_int(text):
    word = text.strip()
    if not word.isascii() or "_" in word:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer {word} does not fit in int64")
    return value


def ascii_float(text):
    word = text.strip()
    if not word.isascii() or "_" in word:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _old_parse_row(row, line, to_int, to_float):
    try:
        place_id = to_int(row["place_id"])
        lat = to_float(row["lat"])
        lon = to_float(row["lon"])
        bearing_raw = (row.get("bearing") or "").strip()
        bearing = to_float(bearing_raw) if bearing_raw else None
        year = to_int(row["year"])
        month = to_int(row["month"])
    except (KeyError, TypeError, ValueError) as exc:
        raise OldManifestError(f"cannot parse row: {exc}", line=line) from exc
    image_ref = (row.get("image_ref") or "").strip()
    if not image_ref:
        raise OldManifestError("empty image_ref", line=line)
    for name, value, ok, span in (
            ("lat", lat, -90.0 <= lat <= 90.0, "[-90, 90]"),
            ("lon", lon, -180.0 <= lon <= 180.0, "[-180, 180]"),
            ("bearing", bearing, bearing is None or 0.0 <= bearing < 360.0, "[0, 360)"),
            ("month", month, 1 <= month <= 12, "[1, 12]")):
        if not ok:
            raise OldManifestError(f"{name} {value} outside {span}", line=line)
    return place_id, (image_ref, lat, lon, bearing, year, month)


def left_to_right(values):
    """The plain float sum of `values` in order (Python 3.12's `sum` compensates rounding)."""
    total = 0.0
    for value in values:
        total += value
    return total


def old_manifest(path, allow_small_places, to_int=int, to_float=float):
    """The manifest's places as `db_values` lists them, or OldManifestError."""
    grouped, seen_refs = {}, set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise OldManifestError("empty file, expected header", line=1)
        if [h.strip() for h in header] != MANIFEST_HEADER:
            raise OldManifestError(
                f"bad header {header!r}, expected {','.join(MANIFEST_HEADER)}", line=1)
        for raw in reader:
            line = reader.line_num
            if not raw or all(not c.strip() for c in raw):
                continue
            if len(raw) != len(MANIFEST_HEADER):
                raise OldManifestError(
                    f"expected {len(MANIFEST_HEADER)} fields, got {len(raw)}", line=line)
            place_id, rec = _old_parse_row(dict(zip(MANIFEST_HEADER, raw)), line, to_int, to_float)
            key = (place_id, rec[0])
            if key in seen_refs:
                raise OldManifestError(f"duplicate (place_id, image_ref) = {key}", line=line)
            seen_refs.add(key)
            grouped.setdefault(place_id, []).append(rec)
    if not grouped:
        raise OldManifestError("the manifest lists no images")
    for pid, recs in grouped.items():
        if len(recs) < 4 and not allow_small_places:
            raise OldManifestError(f"place {pid} has {len(recs)} images, needs >= 4")
    seen = {}
    for pid, recs in grouped.items():
        cell = tuple(math.floor(left_to_right(rec[k] for rec in recs) / len(recs) / 0.001)
                     for k in (1, 2))
        if cell in seen:
            raise OldManifestError(f"places {seen[cell]} and {pid} share grid cell {cell}")
        seen[cell] = pid
    return [(pid, [(ref, struct.pack("<d", lat), struct.pack("<d", lon),
                    None if bearing is None else struct.pack("<d", bearing), year, month)
                   for ref, lat, lon, bearing, year, month in recs])
            for pid, recs in grouped.items()]


def old_sidecar(path, rows, to_int=int, to_float=float):
    """The sidecar of a set of `rows` zero vectors, as (ids, lats, lons, place_ids)."""
    ids, lats, lons, pids = [], [], [], []
    side = sidecar_path(path)
    with side.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{side}: line 1: empty file, expected header")
            if [h.strip() for h in header] != SIDECAR_HEADER:
                raise FormatError(f"{side}: line 1: bad header {header!r}, "
                                  f"expected {','.join(SIDECAR_HEADER)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(SIDECAR_HEADER):
                    raise FormatError(f"{side}: line {reader.line_num}: expected "
                                      f"{len(SIDECAR_HEADER)} fields, got {len(row)}")
                ids.append(row[0])
                lats.append(to_float(row[1]))
                lons.append(to_float(row[2]))
                pids.append(to_int(row[3]))
                for name, value, span in (("lat", lats[-1], 90.0), ("lon", lons[-1], 180.0)):
                    if not -span <= value <= span:
                        raise FormatError(f"{side}: line {reader.line_num}: {name} {value} "
                                          f"outside [{-span:g}, {span:g}]")
        except (ValueError, csv.Error) as exc:
            raise FormatError(f"{side}: line {reader.line_num}: cannot parse row: {exc}") from exc
    if len(ids) != rows:
        raise FormatError(f"{side}: sidecar has {len(ids)} rows but tensor {path} has {rows}")
    ds = DescriptorSet(np.zeros((rows, 2)), ids, np.array(lats), np.array(lons), np.array(pids))
    return ds.ids, ds.lats, ds.lons, ds.place_ids


# ---------------------------------------------------------------------------
# Generated files
# ---------------------------------------------------------------------------

# characters that CSV quoting, line handling, comments and stripping treat specially
SPECIAL = ',"\n\r# \t\x0c\xa0 \x85é漢'
TEXT_FIELDS = st.text(st.sampled_from(SPECIAL) | st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6)
# mostly ids with some text, so that most generated manifests could load
IDS = st.tuples(TEXT_FIELDS, st.sampled_from(["a", "b", "img", ""]), TEXT_FIELDS).map("".join)

# spellings that only the old rule takes: `_` separators, non-ASCII digits, beyond int64
OLD_ONLY_FLOATS = ["1_0.5", "٤٥", "４5.5"]
OLD_ONLY_INTS = ["1_0", "٣", "99999999999999999999", "-9223372036854775809"]
BAD_FLOATS = ["", " ", "x", "1..2", "0x10", "nan(1)", "--1", "1e", "4,5"]
BAD_INTS = ["", "x", "3.0", "1e3", "0x1", "+", "inf"]


def float_spellings(value):
    """Ways to write `value` that both rules read as the same double."""
    spellings = [repr(value), f"{value:.17g}", f" {value!r} ", f"{value:.17e}", f"\t{value!r}\xa0"]
    if value >= 0:
        spellings.append(f" +{value!r} ")
    if math.isfinite(value) and value == int(value):
        spellings += [str(int(value)), f"{value / 10:.17g}e1"]
    return st.sampled_from(spellings)


def int_spellings(value):
    spellings = [str(value), f" {value} ", f"0{value}" if value >= 0 else str(value)]
    if value >= 0:
        spellings.append(f"+{value}")
    return st.sampled_from(spellings)


@st.composite
def number_field(draw, value, kind, mutate):
    """`value` spelt one of many ways, or, when `mutate`, a bad or old-only spelling."""
    if mutate:
        return draw(st.sampled_from((BAD_INTS + OLD_ONLY_INTS) if kind is int
                                    else (BAD_FLOATS + OLD_ONLY_FLOATS)))
    return draw(int_spellings(value) if kind is int else float_spellings(value))


def csv_text(rows, draw):
    """The rows as CSV, with LF or CRLF ends and blank or whitespace-only lines between them."""
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator=draw(st.sampled_from(["\r\n", "\n"])))
    out = []
    for row in rows:
        if isinstance(row, str):  # a raw line
            out.append(row + "\n")
            continue
        text.seek(0)
        text.truncate()
        writer.writerow(row)
        out.append(text.getvalue())
    return "".join(out)


RAW_LINES = ["", "", "", "   ", "\t", " , ,", ",,,,,,", ",,,", '""', '" ",""', '"\n",  ,']


@st.composite
def manifest_case(draw):
    """(text, allow_small_places) of a manifest with 1-4 places near each other.

    Rows of different places interleave; place ids count up from 0 or from
    2**62, where consecutive ids are equal as float64. A "range" row has
    one to four columns out of range.
    """
    places, first_id = draw(st.integers(1, 4)), draw(st.sampled_from([0, 2**62]))
    rows = [MANIFEST_HEADER]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 19)) == 0:
            rows.append(draw(st.sampled_from(RAW_LINES)))
            continue
        place = draw(st.integers(0, places - 1))
        pid = first_id + place
        mutation = draw(st.sampled_from([None] * 12 + ["field", "number", "range", "duplicate"]))
        lat = 45.0 + place * 0.01 + draw(st.floats(0.0, 9e-4))
        lon = 7.0 + draw(st.floats(0.0, 9e-4))
        ref = draw(IDS)
        bearing = draw(st.none() | st.floats(0.0, 359.99))
        year, month = draw(st.integers(1990, 2030)), draw(st.integers(1, 12))
        if mutation == "range":
            which = draw(st.sets(st.sampled_from(["lat", "lon", "bearing", "month"]), min_size=1))
            lat = 90.5 if "lat" in which else lat
            lon = -181.0 if "lon" in which else lon
            bearing = draw(st.sampled_from([360.0, -1.0, float("nan")])) if "bearing" in which \
                else bearing
            month = draw(st.sampled_from([0, 13])) if "month" in which else month
        bad = draw(st.integers(0, 5)) if mutation == "number" else None
        row = [draw(number_field(pid, int, bad == 0)), ref,
               draw(number_field(lat, float, bad == 1)), draw(number_field(lon, float, bad == 2)),
               "" if bearing is None and bad != 3 else draw(number_field(bearing, float, bad == 3)),
               draw(number_field(year, int, bad == 4)), draw(number_field(month, int, bad == 5))]
        if mutation == "duplicate" and len(rows) > 1 and not isinstance(rows[-1], str):
            row[:2] = rows[-1][:2]
        if mutation == "field":
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        rows.append(row)
    return csv_text(rows, draw), draw(st.booleans())


@st.composite
def sidecar_case(draw):
    """(text, rows of its tensor) of a descriptor sidecar."""
    rows, count = [SIDECAR_HEADER], 0
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 19)) == 0:
            rows.append(draw(st.sampled_from(RAW_LINES)))
            continue
        mutation = draw(st.sampled_from([None] * 12 + ["field", "number", "range"]))
        lat, lon = draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0))
        if mutation == "range":
            lat = draw(st.sampled_from([90.25, float("nan"), float("inf")]))
        bad = draw(st.integers(0, 2)) if mutation == "number" else None
        row = [draw(IDS), draw(number_field(lat, float, bad == 0)),
               draw(number_field(lon, float, bad == 1)),
               draw(number_field(draw(st.integers(-(2**63), 2**63 - 1)), int, bad == 2))]
        if mutation == "field":
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        rows.append(row)
        count += 1
    return csv_text(rows, draw), max(0, count + draw(st.sampled_from([0] * 8 + [-1, 1])))


def outcome(read):
    """('ok', value) or ('error', exception class, message)."""
    try:
        return ("ok", read())
    except Exception as exc:  # noqa: BLE001 - the oracle's failures are compared, whatever they are
        return ("error", type(exc), str(exc))


def db_values(db):
    return [(p.place_id, [(img.image_ref, struct.pack("<d", img.lat), struct.pack("<d", img.lon),
                           None if img.bearing is None else struct.pack("<d", img.bearing),
                           img.year, img.month) for img in p.images]) for p in db.places]


def sidecar_values(ids, lats, lons, pids):
    return ids, lats.tobytes(), lons.tobytes(), pids.tolist()


OLD_ONLY = tuple(OLD_ONLY_FLOATS + OLD_ONLY_INTS)


class TestManifestAgainstRowLoop:
    @FUZZ
    @given(case=manifest_case())
    def test_same_places_or_same_error(self, tmp_path, case):
        text, allow_small = case
        path = tmp_path / "manifest.csv"
        path.write_bytes(text.encode("utf-8"))
        new = outcome(lambda: db_values(ingest_manifest(path, allow_small)))
        strict = outcome(lambda: old_manifest(path, allow_small, ascii_int, ascii_float))
        if strict[0] == "ok":
            assert new == strict
        else:
            assert new == ("error", ManifestError, f"{path}: {strict[2]}")
        if not any(spelling in text for spelling in OLD_ONLY):
            assert outcome(lambda: old_manifest(path, allow_small)) == strict

    def test_written_manifest_reads_back(self, tmp_path):
        db = synth_places(6, 4, shape=(3, 3, 1), rng_seed=3)
        db.bearings[6] = np.nan  # a blank bearing: place 1, image 2
        path = tmp_path / "m.csv"
        path.write_bytes(manifest_bytes(db))
        assert db_values(ingest_manifest(path)) == db_values(db)
        assert db.places[1].images[2].bearing is None
        assert db_values(ingest_manifest(path)) == old_manifest(path, False)


class TestSidecarAgainstRowLoop:
    @FUZZ
    @given(case=sidecar_case())
    def test_same_columns_or_same_error(self, tmp_path, case):
        text, rows = case
        path = tmp_path / "d.vprk"
        save_tensor(path, np.zeros((rows, 2)))
        sidecar_path(path).write_bytes(text.encode("utf-8"))

        def new_values():
            ds = load_descriptors(path)
            return sidecar_values(ds.ids, ds.lats, ds.lons, ds.place_ids)

        new = outcome(new_values)
        strict = outcome(lambda: sidecar_values(*old_sidecar(path, rows, ascii_int, ascii_float)))
        assert new == strict
        if not any(spelling in text for spelling in OLD_ONLY):
            assert outcome(lambda: sidecar_values(*old_sidecar(path, rows))) == strict


class TestTextEdges:
    def test_header_only_files_load_empty_without_a_warning(self, tmp_path):
        # a sidecar loads as an empty set; a manifest of no images is an error of its own
        manifest = tmp_path / "m.csv"
        manifest.write_text(",".join(MANIFEST_HEADER) + "\r\n\r\n")
        path = tmp_path / "d.vprk"
        save_tensor(path, np.zeros((0, 3)))
        sidecar_path(path).write_text(",".join(SIDECAR_HEADER) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ManifestError, match=f"^{manifest}: the manifest lists no images$"):
                ingest_manifest(manifest)
            assert len(load_descriptors(path)) == 0

    def test_hash_and_quotes_stay_in_ids(self, tmp_path):
        ids = ["#a", "b#c", ' "q" ', "x,\ny", "\r\n", "  "]
        ds = DescriptorSet(np.eye(6), ids, np.zeros(6), np.zeros(6), np.arange(6))
        save_descriptors(tmp_path / "d.vprk", ds)
        assert load_descriptors(tmp_path / "d.vprk").ids == ids

    @pytest.mark.parametrize("row, problem", [
        ("0,a,45,7,,2010,1_2", "cannot parse row: invalid literal for int() with base 10: '1_2'"),
        ("0,a,٤٥,7,,2010,1", "cannot parse row: could not convert string to float: '٤٥'"),
        ("99999999999999999999,a,45,7,,2010,1",
         "cannot parse row: integer 99999999999999999999 does not fit in int64"),
    ])
    def test_numbers_the_old_reader_took(self, tmp_path, row, problem):
        path = tmp_path / "m.csv"
        path.write_text(",".join(MANIFEST_HEADER) + "\n\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            ingest_manifest(path, allow_small_places=True)
        assert str(info.value) == f"{path}: line 3: {problem}"

    def test_blank_row_inside_a_quoted_ref_is_text(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(MANIFEST_HEADER) + '\n0,"a\n , \nb",45,7,,2010,1\n , \n',
                        encoding="utf-8")
        db = ingest_manifest(path, allow_small_places=True)
        assert [img.image_ref for img in db.images()] == ["a\n , \nb"]

    def test_field_beyond_csv_limit_before_a_bad_row(self, tmp_path):
        big = "x" * (csv.field_size_limit() + 1)
        manifest = tmp_path / "m.csv"
        manifest.write_text(",".join(MANIFEST_HEADER) + f"\n0,{big},45,7,,2010,1\n0,b,91,7,,2010,1\n")
        with pytest.raises(ManifestError, match=r"m\.csv: line 3: lat 91\.0 outside \[-90, 90\]$"):
            ingest_manifest(manifest, allow_small_places=True)
        path = tmp_path / "d.vprk"
        save_tensor(path, np.zeros((2, 1)))
        sidecar_path(path).write_text(f"id,lat,lon,place_id\n{big},0,0,1\nb,0,0,x\n")
        with pytest.raises(FormatError, match=r"d\.csv: line 3: cannot parse row: .*'x'$"):
            load_descriptors(path)

    def test_non_utf8_manifest_names_file_and_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(",".join(MANIFEST_HEADER).encode() + b"\r\n0,a,45,7,,2010,1\r\n0,\xff,45,7,,2010,1\r\n")
        with pytest.raises(ManifestError, match=rf"^{path}: line 3: not UTF-8: "):
            ingest_manifest(path, allow_small_places=True)

    def test_field_limit_restored(self, tmp_path):
        before = csv.field_size_limit()
        big = "x" * (before + 1)
        manifest = tmp_path / "m.csv"
        manifest.write_text(",".join(MANIFEST_HEADER) + f"\n0,{big},45,7,,2010,1\n0,b,45,7,,2010,x\n")
        with pytest.raises(ManifestError, match="line 3"):
            ingest_manifest(manifest, allow_small_places=True)
        assert csv.field_size_limit() == before
        manifest.write_text(",".join(MANIFEST_HEADER) + f"\n0,{big},45,7,,2010,1\n")
        assert ingest_manifest(manifest, allow_small_places=True).images()[0].image_ref == big
        assert csv.field_size_limit() == before

    @pytest.mark.parametrize("row, problem", [
        ("0,b,45,7,,2010,13", "month 13 outside [1, 12]"),
        ("0,b,45,7,,2010,x", "cannot parse row: invalid literal for int() with base 10: 'x'"),
        ("0,b,45,7", "expected 7 fields, got 4"),
    ])
    def test_blank_field_row_counts_towards_a_bad_rows_line(self, tmp_path, row, problem):
        path = tmp_path / "m.csv"
        path.write_text(",".join(MANIFEST_HEADER) + f"\n0,a,45,7,,2010,1\n,,,,,,\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            ingest_manifest(path, allow_small_places=True)
        assert str(info.value) == f"{path}: line 4: {problem}"

    def test_manifest_whose_only_odd_rows_are_blank_fields_loads(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(MANIFEST_HEADER) + '\n,,,,,,\n0,a,45,7,,2010,1\n , \n""\n'
                        "0,b,45,7,90,2011,2\n,,\n", encoding="utf-8")
        db = ingest_manifest(path, allow_small_places=True)
        assert [(img.image_ref, img.bearing) for img in db.images()] == [("a", None), ("b", 90.0)]

    @pytest.mark.parametrize("row, problem", [
        ("0,f,45,7,,2010,13", "month 13 outside [1, 12]"),
        ("0,f,45,7,,x,1", "cannot parse row: invalid literal for int() with base 10: 'x'"),
        ("0,f,45,7", "expected 7 fields, got 4"),
        ("0,,45,7,,2010,1", "empty image_ref"),
    ])
    def test_bad_row_after_a_two_line_ref_names_its_physical_line(self, tmp_path, row, problem):
        path = tmp_path / "m.csv"
        path.write_text(",".join(MANIFEST_HEADER) + '\n0,a,45,7,,2010,1\n0,b,45,7,,2010,1\n'
                        f'0,"c\nd",45,7,,2010,1\n0,e,45,7,,2010,1\n{row}\n', encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            ingest_manifest(path, allow_small_places=True)
        assert str(info.value) == f"{path}: line 7: {problem}"

    def test_sidecar_range_error_names_its_line(self, tmp_path):
        path = tmp_path / "d.vprk"
        save_tensor(path, np.zeros((3, 1)))
        sidecar_path(path).write_text('id,lat,lon,place_id\n"a\nb",0,0,1\nc,200,0,2\nd,0,0,3\n',
                                      encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_descriptors(path)
        assert str(info.value) == f"{sidecar_path(path)}: line 4: lat 200.0 outside [-90, 90]"

    @pytest.mark.parametrize("kind", ["manifest", "sidecar"])
    def test_one_header_rule(self, tmp_path, kind):
        if kind == "manifest":
            path, header = tmp_path / "m.csv", MANIFEST_HEADER
            row, read = "0,a,45,7,,2010,1\n", lambda: ingest_manifest(path, allow_small_places=True)
        else:
            path, header = tmp_path / "d.csv", SIDECAR_HEADER
            row, read = "a,45,7,1\n", lambda: load_descriptors(path.with_suffix(".vprk"))
            save_tensor(path.with_suffix(".vprk"), np.zeros((1, 2)))
        path.write_text(" " + ", ".join(header) + " \n" + row, encoding="utf-8")
        read()  # names are compared stripped
        path.write_text("")
        with pytest.raises(VprkitError) as info:
            read()
        assert str(info.value) == f"{path}: line 1: empty file, expected header"
        path.write_text(",".join(header[:-1]) + "\n" + row, encoding="utf-8")
        with pytest.raises(VprkitError) as info:
            read()
        assert str(info.value) == (f"{path}: line 1: bad header {header[:-1]!r}, "
                                   f"expected {','.join(header)}")

    @pytest.mark.parametrize("row", ["0,b,91,7,,2010,1", "0,b,x,7,,2010,1"])
    def test_csv_error_names_the_file(self, tmp_path, monkeypatch, row):
        # csv before Python 3.11 rejects a line holding a NUL; numpy's C reader takes it
        real = csv.reader

        def reader(lines, *args, **kwargs):
            def checked():
                for line in lines:
                    if "\0" in line:
                        raise csv.Error("line contains NUL")
                    yield line
            return real(checked(), *args, **kwargs)

        monkeypatch.setattr(csv, "reader", reader)
        path = tmp_path / "m.csv"
        path.write_text(",".join(MANIFEST_HEADER) + f"\n0,a\0,45,7,,2010,1\n{row}\n")
        with pytest.raises(ManifestError) as info:
            ingest_manifest(path, allow_small_places=True)
        assert str(info.value) == f"{path}: line contains NUL"

    def test_row_count_error_names_both_files(self, tmp_path):
        path = tmp_path / "d.vprk"
        save_tensor(path, np.zeros((2, 1)))
        sidecar_path(path).write_text("id,lat,lon,place_id\na,0,0,1\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_descriptors(path)
        assert str(info.value) == f"{sidecar_path(path)}: sidecar has 1 rows but tensor {path} has 2"

    def test_sidecar_row_of_blank_fields_is_an_error(self, tmp_path):
        path = tmp_path / "d.vprk"
        save_tensor(path, np.zeros((1, 2)))
        sidecar_path(path).write_text("id,lat,lon,place_id\n,,,\na,0,0,1\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"d\.csv: line 2: cannot parse row: .*''$"):
            load_descriptors(path)


# ---------------------------------------------------------------------------
# Fuzzing the I/O boundary
# ---------------------------------------------------------------------------

def _valid_files(directory: Path) -> dict[str, tuple[Path, callable]]:
    """A valid file of each format, with the reader to give its broken copies to."""
    tensor = directory / "t.vprk"
    save_tensor(tensor, np.arange(12, dtype=np.float32).reshape(3, 4))
    checkpoint = directory / "c.vprc"
    save_checkpoint(checkpoint, "conv_ap", {"weight": np.ones((4, 2)), "bias": np.zeros(4)},
                    {"out_channels": 4})
    descriptors = directory / "d.vprk"
    save_descriptors(descriptors, DescriptorSet(np.eye(3), ["a", 'b,"c"', "d\ne"], np.zeros(3),
                                                np.ones(3), np.arange(3)))
    manifest = directory / "m.csv"
    manifest.write_bytes(manifest_bytes(synth_places(2, 4, shape=(3, 3, 1), rng_seed=1)))
    return {
        "tensor": (tensor, load_tensor),
        "checkpoint": (checkpoint, load_checkpoint),
        "descriptor tensor": (descriptors, load_descriptors),
        "sidecar": (sidecar_path(descriptors), lambda p: load_descriptors(p.with_suffix(".vprk"))),
        "manifest": (manifest, lambda p: ingest_manifest(p, allow_small_places=True)),
    }


def _only_typed_errors(read, path):
    """`read(path)` returns, or raises a VprkitError whose message starts with the file's path.

    A descriptor set whose sidecar and tensor differ in rows is named by
    both files, the sidecar first.
    """
    try:
        read(path)
    except VprkitError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: ") or f" tensor {path} has " in message, message


FORMATS = ["tensor", "checkpoint", "descriptor tensor", "sidecar", "manifest"]


class TestReadersRaiseOnlyTypedErrors:
    @pytest.mark.parametrize("name", FORMATS)
    def test_every_truncation(self, tmp_path, name):
        path, read = _valid_files(tmp_path)[name]
        data = path.read_bytes()
        for end in range(len(data)):
            path.write_bytes(data[:end])
            _only_typed_errors(read, path)

    @FUZZ
    @given(name=st.sampled_from(FORMATS), data=st.binary(max_size=300))
    def test_arbitrary_bytes(self, tmp_path, name, data):
        path, read = _valid_files(tmp_path)[name]
        path.write_bytes(data)
        _only_typed_errors(read, path)

    @FUZZ
    @given(name=st.sampled_from(FORMATS), data=st.data())
    def test_valid_files_with_bytes_changed(self, tmp_path, name, data):
        path, read = _valid_files(tmp_path)[name]
        raw = bytearray(path.read_bytes())
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(raw))
        _only_typed_errors(read, path)

    def test_tensor_rank_beyond_numpy(self, tmp_path):
        path = tmp_path / "t.vprk"
        path.write_bytes(b"VPRK" + struct.pack("<HBB", FORMAT_VERSION, 1, 70) + bytes(4 * 70))
        with pytest.raises(FormatError, match="rank 70"):
            load_tensor(path)

    @pytest.mark.parametrize("load", [load_tensor, lambda path: load_tensor(path, np.float64)],
                             ids=["float32", "float64"])
    def test_empty_tensor_beyond_numpy(self, tmp_path, load):
        # no payload, but numpy refuses any shape whose nonzero dims overflow its size
        path = tmp_path / "t.vprk"
        path.write_bytes(b"VPRK" + struct.pack("<HBB3I", FORMAT_VERSION, 1, 3, 0, 2**32 - 1,
                                               2**32 - 1))
        with pytest.raises(FormatError, match="unsupported tensor of rank 3"):
            load(path)

    def test_deeply_nested_checkpoint_header(self, tmp_path):
        header = b"[" * 100_000 + b"]" * 100_000
        path = tmp_path / "c.vprc"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<HI", FORMAT_VERSION, len(header)) + header)
        with pytest.raises(FormatError, match="corrupt checkpoint header"):
            load_checkpoint(path)


def test_int64_bounds_are_place_ids(tmp_path):
    path = tmp_path / "d.vprk"
    save_tensor(path, np.zeros((2, 1)))
    sidecar_path(path).write_text("id,lat,lon,place_id\na,0,0,-9223372036854775808\n"
                                  "b,0,0,9223372036854775807\n")
    assert load_descriptors(path).place_ids.tolist() == [-(2**63), 2**63 - 1]
