import csv
import errno
import io
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vprkit.errors import FormatError
from vprkit.tensorio import (
    CHECKPOINT_MAGIC,
    FORMAT_VERSION,
    DescriptorSet,
    copy_descriptors,
    load_checkpoint,
    load_descriptors,
    load_tensor,
    read_tensor_stream,
    save_checkpoint,
    save_descriptors,
    save_tensor,
    sidecar_path,
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
            read_tensor_stream(ShortRead(tensor_bytes(rng.standard_normal((4, 4)))))

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

    @pytest.mark.parametrize("kind", [None, "netvlad", ["conv_ap"]])
    def test_unknown_aggregator_rejected(self, tmp_path, kind):
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
        with pytest.raises(FormatError, match=rf"desc\.csv: row 1: {field} {value}"):
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
