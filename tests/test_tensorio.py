import csv
import errno
import io
import json
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vprkit.errors import FormatError
from vprkit.tensorio import (
    CHECKPOINT_MAGIC,
    FLOAT64,
    FLOAT64_OR_BLANK,
    FORMAT_VERSION,
    INT64,
    READ_BLOCK_BYTES,
    TEXT,
    DescriptorSet,
    TensorRows,
    copy_descriptors,
    load_checkpoint,
    load_descriptors,
    load_tensor,
    read_into,
    read_table,
    save_checkpoint,
    save_descriptors,
    save_tensor,
    sidecar_path,
    table_bytes,
    tensor_bytes,
)


class TestTensorFormat:
    def test_roundtrip_exact_f32(self, rng, tmp_path):
        arr = rng.standard_normal((3, 4, 5)).astype(np.float32)
        path = tmp_path / "t.vprk"
        save_tensor(path, arr)
        np.testing.assert_array_equal(load_tensor(path), arr)

    def test_rank_choices(self, rng, tmp_path):
        for shape in [(7,), (2, 3), (2, 3, 4), (2, 2, 2, 2)]:
            path = tmp_path / "t.vprk"
            arr = rng.standard_normal(shape).astype(np.float32)
            save_tensor(path, arr)
            out = load_tensor(path)
            assert out.shape == shape
            np.testing.assert_array_equal(out, arr)

    def test_header_layout(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        blob = tensor_bytes(arr)
        assert blob[:4] == b"VPRK"
        version, dtype, rank = struct.unpack("<HBB", blob[4:8])
        assert (version, dtype, rank) == (1, 1, 2)
        assert struct.unpack("<2I", blob[8:16]) == (2, 3)
        assert len(blob) == 16 + 4 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vprk"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            load_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        path = tmp_path / "t.vprk"
        save_tensor(path, rng.standard_normal((4, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_tensor(path)

    def test_payload_is_read_without_a_second_copy(self, tmp_path):
        path = tmp_path / "t.vprk"
        save_tensor(path, np.ones((1024, 1024)))  # 4 MB payload
        tracemalloc.start()
        try:
            arr = load_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.nbytes <= peak < 1.5 * arr.nbytes

    def test_short_payload_read_rejected(self, rng):
        class ShortRead(io.BytesIO):  # holds the payload, but one read delivers half of it
            def readinto(self, buf):
                view = memoryview(buf).cast("B")
                return super().readinto(view[:len(view) // 2])

        with pytest.raises(FormatError, match="shrank while reading payload"):
            read_into(ShortRead(bytes(tensor_bytes(rng.standard_normal((4, 4))))[16:]),
                      np.empty((4, 4), "<f4"))

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "t.vprk"
        save_tensor(path, rng.standard_normal((2, 2)))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_tensor(path)

    def test_bad_version_rejected(self, tmp_path):
        arr = np.zeros(3, dtype=np.float32)
        blob = bytearray(tensor_bytes(arr))
        blob[4:6] = struct.pack("<H", 9)
        path = tmp_path / "t.vprk"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_tensor(path)


class TestDescriptorSets:
    def _set(self, rng, n=6, d=4):
        return DescriptorSet(
            rng.standard_normal((n, d)),
            [f"img_{i}" for i in range(n)],
            rng.uniform(-80, 80, n),
            rng.uniform(-170, 170, n),
            rng.integers(0, 3, n),
        )

    def test_roundtrip(self, rng, tmp_path):
        ds = self._set(rng)
        path = tmp_path / "desc.vprk"
        save_descriptors(path, ds)
        assert sidecar_path(path).exists()
        back = load_descriptors(path)
        np.testing.assert_allclose(back.vectors, ds.vectors, atol=1e-6)
        assert back.ids == ds.ids
        np.testing.assert_array_equal(back.place_ids, ds.place_ids)
        np.testing.assert_allclose(back.lats, ds.lats, atol=0)  # repr round-trip
        np.testing.assert_allclose(back.lons, ds.lons, atol=0)

    def test_sidecar_row_mismatch_rejected(self, rng, tmp_path):
        ds = self._set(rng)
        path = tmp_path / "desc.vprk"
        save_descriptors(path, ds)
        lines = sidecar_path(path).read_text().splitlines()
        sidecar_path(path).write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError, match="rows"):
            load_descriptors(path)

    def test_misaligned_metadata_rejected(self, rng):
        with pytest.raises(ValueError):
            DescriptorSet(rng.standard_normal((3, 2)), ["a"], np.zeros(3), np.zeros(3), np.zeros(3, int))


class TestCheckpointContainer:
    def test_roundtrip(self, rng, tmp_path):
        tensors = {
            "weight": rng.standard_normal((4, 3)).astype(np.float32),
            "bias": rng.standard_normal(4).astype(np.float32),
        }
        config = {"grid": [2, 2], "note": "x"}
        path = tmp_path / "c.vprc"
        save_checkpoint(path, "conv_ap", tensors, config)
        kind, back, echo = load_checkpoint(path)
        assert kind == "conv_ap"
        assert echo == config
        for name in tensors:
            np.testing.assert_array_equal(back[name].astype(np.float32), tensors[name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.vprc"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_tensor_block(self, rng, tmp_path):
        path = tmp_path / "c.vprc"
        save_checkpoint(path, "gem", {"power": np.array([3.0])}, {})
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    @staticmethod
    def _write_header(path, header):
        hbytes = json.dumps(header).encode("utf-8")
        path.write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<HI", FORMAT_VERSION, len(hbytes)) + hbytes
        )

    @pytest.mark.parametrize(
        "tensors", ["absent", "weight", [1, 2], ["weight", None], {"weight": 0}]
    )
    def test_tensor_names_must_be_list_of_strings(self, tmp_path, tensors):
        header = {"format": FORMAT_VERSION, "aggregator": "conv_ap", "config": {}}
        if tensors != "absent":
            header["tensors"] = tensors
        path = tmp_path / "c.vprc"
        self._write_header(path, header)
        with pytest.raises(FormatError, match="tensors"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", [None, 3, ["conv_ap"]])
    def test_unknown_aggregator_rejected(self, tmp_path, kind):
        # a kind that is not a string; which strings are known is up to each loader
        header = {"format": FORMAT_VERSION, "tensors": [], "config": {}}
        if kind is not None:
            header["aggregator"] = kind
        path = tmp_path / "c.vprc"
        self._write_header(path, header)
        with pytest.raises(FormatError, match="unknown kind"):
            load_checkpoint(path)


def _peak_bytes_while_failing(load, path):
    """The tracemalloc peak while `load(path)` raises FormatError."""
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDeclaredSizes:
    """Sizes a file declares but does not hold fail before anything is allocated."""

    @staticmethod
    def _tensor_head(dims):
        return b"VPRK" + struct.pack(f"<HBB{len(dims)}I", FORMAT_VERSION, 1, len(dims), *dims)

    def test_tensor_dims_beyond_file(self, tmp_path):
        path = tmp_path / "t.vprk"
        path.write_bytes(self._tensor_head((4096, 4096)) + bytes(12))  # declares 64 MB
        assert path.stat().st_size == 28
        assert _peak_bytes_while_failing(load_tensor, path) < 1 << 20

    def test_dims_whose_product_overflows_int64(self, tmp_path):
        # 65536**4 == 2**64 wraps to 0 in int64, which would read an empty payload
        path = tmp_path / "t.vprk"
        path.write_bytes(self._tensor_head((65536,) * 4) + bytes(8))
        assert _peak_bytes_while_failing(load_tensor, path) < 1 << 20

    def test_checkpoint_header_length_beyond_file(self, tmp_path):
        path = tmp_path / "c.vprc"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<HI", FORMAT_VERSION, 64 << 20) + b"{}")
        assert _peak_bytes_while_failing(load_checkpoint, path) < 1 << 20

    def test_exact_sizes_still_load(self, rng, tmp_path):
        path = tmp_path / "t.vprk"
        arr = rng.standard_normal((3, 5)).astype(np.float32)
        save_tensor(path, arr)
        np.testing.assert_array_equal(load_tensor(path), arr)
        save_tensor(path, np.float32(2.5))  # rank 0: one value, no dims
        assert load_tensor(path) == np.float32(2.5)


class TestTypedReadErrors:
    @staticmethod
    def _saved_set(tmp_path, n=4):
        path = tmp_path / "desc.vprk"
        ds = DescriptorSet(np.eye(n), [f"d{i}" for i in range(n)], np.zeros(n), np.zeros(n), np.arange(n))
        save_descriptors(path, ds)
        return path

    def _replace_line(self, path, line, text):
        lines = sidecar_path(path).read_text().splitlines()
        lines[line - 1] = text
        sidecar_path(path).write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("row", ["d1,0.0,0.0", "d1", "d1,north,0.0,1", "d1,0.0,0.0,one",
                                     "d1,0.0,0.0,1,extra"])
    def test_bad_sidecar_row_names_file_and_line(self, tmp_path, row):
        path = self._saved_set(tmp_path)
        self._replace_line(path, 3, row)
        with pytest.raises(FormatError, match=r"desc\.csv: line 3: ") as info:
            load_descriptors(path)
        assert str(sidecar_path(path)) in str(info.value)

    def test_non_utf8_sidecar(self, tmp_path):
        path = self._saved_set(tmp_path)
        side = sidecar_path(path)
        side.write_bytes(side.read_bytes().replace(b"d2", b"d\xff"))
        with pytest.raises(FormatError, match="desc.csv"):
            load_descriptors(path)

    def test_non_utf8_checkpoint_header(self, tmp_path):
        hbytes = b'{"tensors": ["\xff"]}'
        path = tmp_path / "c.vprc"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<HI", FORMAT_VERSION, len(hbytes)) + hbytes)
        with pytest.raises(FormatError, match="corrupt checkpoint header"):
            load_checkpoint(path)


class TestCoordinateRule:
    @pytest.mark.parametrize("lat, lon", [
        (np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf),
        (90.5, 0.0), (-90.000001, 0.0), (0.0, 180.25), (0.0, -181.0),
    ])
    def test_invalid_coordinates_rejected(self, lat, lon):
        with pytest.raises(ValueError, match=r"row 1: (lat|lon) "):
            DescriptorSet(np.eye(3), ["a", "b", "c"], np.array([0.0, lat, 0.0]),
                          np.array([0.0, lon, 0.0]), np.arange(3))

    def test_range_ends_accepted(self):
        ds = DescriptorSet(np.eye(4), list("abcd"), np.array([-90.0, 90.0, -0.0, 0.0]),
                           np.array([-180.0, 180.0, 0.0, -0.0]), np.arange(4))
        assert len(ds) == 4

    @pytest.mark.parametrize("field, value", [("lat", "nan"), ("lat", "91"), ("lon", "inf")])
    def test_load_names_the_sidecar(self, tmp_path, field, value):
        path = tmp_path / "desc.vprk"
        save_descriptors(path, DescriptorSet(np.eye(3), ["a", "b", "c"], np.zeros(3),
                                             np.zeros(3), np.arange(3)))
        row = f"b,{value},0.0,1" if field == "lat" else f"b,0.0,{value},1"
        lines = sidecar_path(path).read_text().splitlines()
        lines[2] = row
        sidecar_path(path).write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"desc\.csv: line 3: {field} {float(value)} outside "):
            load_descriptors(path)


class TestFiniteVectors:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_names_the_row(self, value):
        vectors = np.eye(3)
        vectors[2, 1] = value
        with pytest.raises(ValueError, match="row 2: descriptor has non-finite entries"):
            DescriptorSet(vectors, ["a", "b", "c"], np.zeros(3), np.zeros(3), np.arange(3))

    def test_load_names_the_tensor_file(self, tmp_path):
        path = tmp_path / "desc.vprk"
        save_descriptors(path, DescriptorSet(np.eye(3), ["a", "b", "c"], np.zeros(3),
                                             np.zeros(3), np.arange(3)))
        vectors = np.eye(3)
        vectors[1, 0] = np.nan
        save_tensor(path, vectors)
        with pytest.raises(FormatError, match=r"desc\.vprk: row 1: descriptor has non-finite"):
            load_descriptors(path)

    def test_signalling_nan_is_a_non_finite_row(self, tmp_path):
        # float32 0x7f800001 is a signalling NaN: widening it to float64 raises "invalid"
        path = tmp_path / "desc.vprk"
        save_descriptors(path, DescriptorSet(np.eye(3), ["a", "b", "c"], np.zeros(3),
                                             np.zeros(3), np.arange(3)))
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=r"desc\.vprk: row 2: descriptor has non-finite"):
            load_descriptors(path)


def sidecar_row_by_row(ds: DescriptorSet) -> bytes:
    """The sidecar as written one `writerow` per descriptor."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["id", "lat", "lon", "place_id"])
    for i in range(len(ds)):
        writer.writerow([ds.ids[i], repr(float(ds.lats[i])), repr(float(ds.lons[i])),
                         int(ds.place_ids[i])])
    return text.getvalue().encode("utf-8")


class TestSidecarBytes:
    def test_equals_row_by_row_writer(self, rng, tmp_path):
        lats = np.array([-90.0, 90.0, -0.0, 1e-300, 1 / 3, 45.00000000000001, 5e-324])
        lons = np.array([-180.0, 180.0, 0.0, -1e-17, 2 / 3, 7.123456789012345, 179.99999999999997])
        ids = ["plain", "with,comma", 'with "quote"', "ünï", "line\nbreak", "", " pad "]
        pids = np.array([0, -1, 2**62, 3, 4, 5, 6])
        ds = DescriptorSet(rng.standard_normal((7, 3)), ids, lats, lons, pids)
        path = tmp_path / "d.vprk"
        save_descriptors(path, ds)
        assert sidecar_path(path).read_bytes() == sidecar_row_by_row(ds)
        back = load_descriptors(path)
        assert back.ids == ids
        assert back.lats.tobytes() == lats.tobytes() and back.lons.tobytes() == lons.tobytes()

    def test_empty_set(self, tmp_path):
        ds = DescriptorSet(np.zeros((0, 3)), [], np.zeros(0), np.zeros(0), np.zeros(0, int))
        save_descriptors(tmp_path / "e.vprk", ds)
        assert sidecar_path(tmp_path / "e.vprk").read_bytes() == sidecar_row_by_row(ds)


class HalfWrite:
    """A file whose first write stores half the bytes, then fails as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestAtomicWrites:
    @staticmethod
    def _set():
        return DescriptorSet(np.eye(3), ["a", "b", "c"], np.zeros(3), np.zeros(3), np.arange(3))

    WRITERS = {
        "tensor": ("t.vprk", lambda d: save_tensor(d / "t.vprk", np.ones((4, 4)))),
        "checkpoint": ("c.vprc", lambda d: save_checkpoint(
            d / "c.vprc", "pca", {"mean": np.zeros(3)}, {"epsilon": 1e-9})),
        "sidecar": ("s.csv", lambda d: save_descriptors(d / "s.vprk", TestAtomicWrites._set())),
        "copy": ("copy.vprk", lambda d: copy_descriptors([(d / "src.vprk", d / "copy.vprk")])),
    }

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_leaves_final_name_alone(self, tmp_path, monkeypatch, writer, existing):
        target, write = self.WRITERS[writer]
        save_descriptors(tmp_path / "src.vprk", self._set())
        if existing:
            (tmp_path / target).write_bytes(b"old content")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        real_open = Path.open

        def half_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            writing = any(c in mode for c in "wxa")
            return HalfWrite(fh) if writing and target in path.name else fh

        monkeypatch.setattr(Path, "open", half_open)
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path)
        monkeypatch.undo()

        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert after == before  # for a set, the tensor half is not replaced either

    @pytest.mark.parametrize("writer", ["save", "copy"])
    def test_failed_sidecar_write_keeps_both_old_files(self, tmp_path, monkeypatch, writer):
        from vprkit import tensorio

        save_descriptors(tmp_path / "src.vprk", DescriptorSet(
            np.ones((2, 3)), ["x", "y"], np.ones(2), np.ones(2), np.arange(2)))
        save_descriptors(tmp_path / "s.vprk", self._set())
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_write = tensorio._write_new

        def fail_on_csv(path, data):
            if ".csv." in path.name:
                raise OSError(errno.ENOSPC, "No space left on device")
            real_write(path, data)

        monkeypatch.setattr(tensorio, "_write_new", fail_on_csv)
        with pytest.raises(OSError, match="No space left"):
            if writer == "save":
                save_descriptors(tmp_path / "s.vprk", DescriptorSet(
                    np.ones((1, 2)), ["z"], np.zeros(1), np.zeros(1), np.zeros(1)))
            else:
                copy_descriptors([(tmp_path / "src.vprk", tmp_path / "s.vprk")])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_replaces_existing_file(self, tmp_path, writer):
        target, write = self.WRITERS[writer]
        save_descriptors(tmp_path / "src.vprk", self._set())
        (tmp_path / target).write_bytes(b"old content")
        write(tmp_path)
        assert (tmp_path / target).read_bytes() != b"old content"
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]


def tensor_file_by_copies(arr) -> bytes:
    """A tensor file as built with a float32 copy, its bytes and their concatenation."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    head = b"VPRK" + struct.pack("<HBB", FORMAT_VERSION, 1, arr.ndim)
    return head + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes()


class TestWrittenTensorBytes:
    ARRAYS = {
        "rank 0": lambda rng: np.float64(rng.standard_normal()),
        "zero-size dims": lambda rng: np.zeros((3, 0, 2)),
        "empty rank 1": lambda rng: np.zeros(0, np.float32),
        "non-contiguous": lambda rng: rng.standard_normal((6, 8)).astype(np.float32)[::2, 1::3],
        "transposed float64": lambda rng: rng.standard_normal((5, 7)).T,
        "float64 rank 4": lambda rng: rng.standard_normal((3, 2, 2, 5)) * 1e30,
        "float32 with inf and nan": lambda rng: np.array([np.inf, -np.inf, np.nan, -0.0], np.float32),
        "big-endian float32": lambda rng: rng.standard_normal((4, 3)).astype(">f4"),
        "int": lambda rng: np.arange(-5, 5).reshape(2, 5),
    }

    @pytest.mark.parametrize("name", sorted(ARRAYS))
    def test_file_equals_header_and_float32_bytes(self, rng, tmp_path, name):
        arr = self.ARRAYS[name](rng)
        save_tensor(tmp_path / "t.vprk", arr)
        assert (tmp_path / "t.vprk").read_bytes() == tensor_file_by_copies(arr)
        assert bytes(tensor_bytes(arr)) == tensor_file_by_copies(arr)

    def test_descriptor_tensor(self, rng, tmp_path):
        ds = DescriptorSet(rng.standard_normal((9, 5)), list("abcdefghi"), np.zeros(9), np.zeros(9),
                           np.arange(9))
        save_descriptors(tmp_path / "d.vprk", ds)
        assert (tmp_path / "d.vprk").read_bytes() == tensor_file_by_copies(ds.vectors)

    def test_checkpoint_container(self, rng, tmp_path):
        tensors = {"weight": rng.standard_normal((4, 3)), "bias": np.zeros(0),
                   "power": np.float64(3.0), "view": rng.standard_normal((6, 6))[::3, ::2]}
        config = {"grid": [2, 2], "name": "ünï"}
        save_checkpoint(tmp_path / "c.vprc", "conv_ap", tensors, config)
        header = json.dumps({"format": FORMAT_VERSION, "aggregator": "conv_ap",
                             "tensors": list(tensors), "config": config},
                            sort_keys=True).encode("utf-8")
        expected = (CHECKPOINT_MAGIC + struct.pack("<HI", FORMAT_VERSION, len(header)) + header
                    + b"".join(tensor_file_by_copies(t) for t in tensors.values()))
        assert (tmp_path / "c.vprc").read_bytes() == expected


class TestFloat64Reads:
    def test_values_equal_a_float32_load_converted(self, rng, tmp_path):
        for n in (0, 1, READ_BLOCK_BYTES // 4 - 1, READ_BLOCK_BYTES // 4, 3 * READ_BLOCK_BYTES // 4 + 5):
            path = tmp_path / f"t{n}.vprk"
            save_tensor(path, rng.standard_normal(n))
            wide = load_tensor(path, np.float64)
            assert wide.dtype == np.float64 and wide.shape == (n,)
            assert wide.tobytes() == load_tensor(path).astype(np.float64).tobytes()

    def test_descriptor_and_checkpoint_loads_are_float64(self, rng, tmp_path):
        vectors = rng.standard_normal((700, 33))
        save_descriptors(tmp_path / "d.vprk", DescriptorSet(
            vectors, [str(i) for i in range(700)], np.zeros(700), np.zeros(700), np.arange(700)))
        back = load_descriptors(tmp_path / "d.vprk").vectors
        assert back.dtype == np.float64
        assert back.tobytes() == vectors.astype(np.float32).astype(np.float64).tobytes()
        save_checkpoint(tmp_path / "c.vprc", "pca", {"mean": vectors}, {})
        _, tensors, _ = load_checkpoint(tmp_path / "c.vprc")
        assert tensors["mean"].tobytes() == back.tobytes()

    def test_stored_payloads_stay_float32(self, rng, tmp_path):
        save_tensor(tmp_path / "p.vprk", rng.standard_normal((2, 3, 3, 4)))
        assert load_tensor(tmp_path / "p.vprk").dtype == np.float32

    def test_peak_is_the_float64_array_and_one_buffer(self, tmp_path):
        path = tmp_path / "d.vprk"
        save_descriptors(path, DescriptorSet(np.ones((16, 65536)), [str(i) for i in range(16)],
                                             np.zeros(16), np.zeros(16), np.arange(16)))
        tracemalloc.start()
        try:
            vectors = load_descriptors(path).vectors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beyond the float64 array: the read buffer, and a few KiB for the sidecar and small objects
        assert vectors.nbytes <= peak < vectors.nbytes + READ_BLOCK_BYTES + (1 << 14)

    @pytest.mark.parametrize("cut", [1, 4, 4 * 40000])
    def test_truncated_payload_rejected_before_any_read(self, tmp_path, cut):
        path = tmp_path / "t.vprk"
        save_tensor(path, np.ones((200, 400)))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(FormatError, match="truncated file while reading payload"):
            load_tensor(path, np.float64)

    def test_short_read_in_a_later_block_rejected(self, rng):
        class ShortSecondRead(io.BytesIO):  # the second payload block read delivers one byte less
            reads = 0

            def readinto(self, buf):
                self.reads += 1
                view = memoryview(buf).cast("B")
                return super().readinto(view[:len(view) - (self.reads == 2)])

        payload = bytes(tensor_bytes(rng.standard_normal((100, 400))))[16:]  # three blocks
        with pytest.raises(FormatError, match="shrank while reading payload"):
            read_into(ShortSecondRead(payload), np.empty((100, 400)))


class TestTableBytes:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(st.text(alphabet=st.sampled_from(list(',"\r\n ab#\t\x00é')),
                                          max_size=6), min_size=3, max_size=3), max_size=8),
           header=st.lists(st.sampled_from(["id", "a,b", 'q"', "x y"]), min_size=3, max_size=3,
                           unique=True))
    def test_equals_csv_writer(self, rows, header):
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(header)
        writer.writerows(rows)
        columns = [list(column) for column in zip(*rows)] if rows else [[], [], []]
        assert table_bytes(dict.fromkeys(header, TEXT), columns) == text.getvalue().encode("utf-8")

    # (INT64, FLOAT64, FLOAT64_OR_BLANK) rows at the ends of each kind's range: int64's, and
    # the signed zero, smallest subnormal and largest finite double; a NaN is written blank
    EDGE_ROWS = [(2**63 - 1, -0.0, math.nan), (-(2**63 - 1), 5e-324, -0.0),
                 (-(2**63), -5e-324, 5e-324), (0, 1.7976931348623157e308, -5e-324),
                 (-1, -1.7976931348623157e308, 1.7976931348623157e308),
                 (1, 0.1, -1.7976931348623157e308)]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1), st.floats(allow_nan=False),
                                   st.floats()), max_size=8))
    def test_numbers_read_back_bit_for_bit(self, tmp_path_factory, rows):
        ints, floats, blanks = map(list, zip(*self.EDGE_ROWS, *rows))
        path = tmp_path_factory.mktemp("table") / "t.csv"
        kinds = {"i": INT64, "f": FLOAT64, "b": FLOAT64_OR_BLANK}
        path.write_bytes(table_bytes(kinds, [np.array(ints), np.array(floats), np.array(blanks)]))
        table = read_table(path, kinds, FormatError)
        assert table.fault is None
        got_ints, got_floats, got_blanks = table.columns.values()
        assert got_ints.dtype == np.int64 and got_ints.tolist() == ints
        assert got_floats.tobytes() == np.array(floats).tobytes()
        assert [b is None for b in got_blanks] == list(map(math.isnan, blanks))
        assert (np.array([b for b in got_blanks if b is not None], np.float64).tobytes()
                == np.array([b for b in blanks if not math.isnan(b)], np.float64).tobytes())

    def test_sidecar_field_quoting_reads_back(self, tmp_path):
        ids = ["a,b", 'say "hi"', "cr\rlf\r\n", "lf\n", "plain", ""]
        n = len(ids)
        save_descriptors(tmp_path / "d.vprk", DescriptorSet(np.ones((n, 2)), ids, np.zeros(n),
                                                            np.zeros(n), np.arange(n)))
        assert load_descriptors(tmp_path / "d.vprk").ids == ids


def _tensor_head(dims, version=FORMAT_VERSION, tag=1):
    return b"VPRK" + struct.pack(f"<HBB{len(dims)}I", version, tag, len(dims), *dims)


_WHOLE = bytes(tensor_bytes(np.arange(16.0).reshape(4, 4)))
# the files `load_tensor` rejects in the tests above, and the other checks of its header
CORRUPT_TENSOR_FILES = {
    "empty": b"",
    "bad magic": b"NOPE" + bytes(12),
    "short header": b"VPRK\x01",
    "bad version": _tensor_head((3,), version=9) + bytes(12),
    "bad dtype tag": _tensor_head((3,), tag=2) + bytes(12),
    "dims cut short": _tensor_head((2, 3))[:-2],
    "truncated payload": _WHOLE[:-8],
    "dims beyond file": _tensor_head((4096, 4096)) + bytes(12),
    "dims whose product overflows int64": _tensor_head((65536,) * 4) + bytes(8),
    "rank beyond numpy's": _tensor_head((1,) * 65) + bytes(4),
    "trailing bytes": _WHOLE + b"x",
}


class TestTensorRows:
    @pytest.mark.parametrize("name", sorted(CORRUPT_TENSOR_FILES))
    def test_open_rejects_what_load_tensor_rejects(self, tmp_path, name):
        path = tmp_path / "t.vprk"
        path.write_bytes(CORRUPT_TENSOR_FILES[name])
        with pytest.raises(FormatError) as loaded:
            load_tensor(path)
        with pytest.raises(FormatError) as opened:
            TensorRows(path)
        assert str(opened.value) == str(loaded.value)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.integers(0, 9), max_size=25))
    def test_take_equals_indexing_the_loaded_array(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rows") / "t.vprk"
        save_tensor(path, np.random.default_rng(len(rows)).standard_normal((10, 3, 2, 5)))
        with TensorRows(path) as store:
            taken = store.take(rows, axis=0)
        expected = load_tensor(path)[rows]
        assert taken.dtype == np.float32 and taken.shape == expected.shape
        assert taken.tobytes() == expected.tobytes()

    def test_rows_and_shape_of_a_map_store(self, rng, tmp_path):
        path = tmp_path / "t.vprk"
        save_tensor(path, rng.standard_normal((5, 2, 3, 4)))
        whole = load_tensor(path)
        with TensorRows(path) as store:
            assert (store.shape, store.ndim) == ((5, 2, 3, 4), 4)
            assert store.take([3])[0].tobytes() == whole[3].tobytes()
            for bad in ([5], [-1]):
                with pytest.raises(IndexError):
                    store.take(bad)
            with pytest.raises(ValueError, match="first axis"):
                store.take([0], axis=1)

    def test_reads_come_from_the_file_opened(self, rng, tmp_path):
        path = tmp_path / "t.vprk"
        save_tensor(path, rng.standard_normal((4, 3)))
        first = load_tensor(path)
        with TensorRows(path) as store:
            save_tensor(path, rng.standard_normal((4, 3)))  # a new file renamed onto the path
            assert store.take([2, 0, 1]).tobytes() == first[[2, 0, 1]].tobytes()

    def test_file_truncated_after_open_fails_at_take(self, rng, tmp_path):
        path = tmp_path / "t.vprk"
        whole = rng.standard_normal((64, 256)).astype(np.float32)  # 1 KiB rows, 64 KiB in all
        save_tensor(path, whole)
        with TensorRows(path) as store:
            with path.open("r+b") as fh:
                fh.truncate(path.stat().st_size - 4)
            assert store.take([0]).tobytes() == whole[:1].tobytes()
            named = f"^{re.escape(str(path))}: file shrank while reading payload$"
            with pytest.raises(FormatError, match=named):
                store.take([62, 63])
            with pytest.raises(FormatError, match=named):
                store.read()
