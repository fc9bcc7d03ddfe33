import json
import struct
import tracemalloc

import numpy as np
import pytest

from vprkit.errors import FormatError
from vprkit.tensorio import (
    CHECKPOINT_MAGIC,
    FORMAT_VERSION,
    DescriptorSet,
    load_checkpoint,
    load_descriptors,
    load_tensor,
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

    @pytest.mark.parametrize("row", ["d1,0.0,0.0", "d1", "d1,north,0.0,1", "d1,0.0,0.0,one"])
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
