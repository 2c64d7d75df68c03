import struct

import numpy as np
import pytest

from mvtrace import io, nn


class TestMatrixFormat:
    def test_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((7, 3))
        path = tmp_path / "m.mvrl"
        io.write_matrix(path, arr)
        assert np.array_equal(io.read_matrix(path), arr)

    def test_vector_becomes_column(self, tmp_path):
        path = tmp_path / "v.mvrl"
        io.write_matrix(path, np.array([1.0, 2.0, 3.0]))
        out = io.read_matrix(path)
        assert out.shape == (3, 1)
        assert out[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_header_layout_exact_bytes(self, tmp_path):
        path = tmp_path / "m.mvrl"
        io.write_matrix(path, np.array([[1.5]]))
        blob = path.read_bytes()
        assert blob[:4] == b"MVRL"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:16], "little") == 1   # rows u64
        assert int.from_bytes(blob[16:24], "little") == 1  # cols u64
        assert np.frombuffer(blob[24:32], dtype="<f8")[0] == 1.5
        assert len(blob) == 32

    def test_header_reader(self, tmp_path):
        path = tmp_path / "m.mvrl"
        io.write_matrix(path, np.zeros((4, 6)))
        assert io.read_matrix_header(path) == {
            "format": "MVRL", "version": 1, "rows": 4, "cols": 6,
        }

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvrl"
        path.write_bytes(b"NOPE" + b"\x00" * 24)
        with pytest.raises(ValueError, match="magic"):
            io.read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.mvrl"
        io.write_matrix(path, np.zeros((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            io.read_matrix(path)

    def test_declared_size_past_end(self, tmp_path):
        path = tmp_path / "m.mvrl"
        path.write_bytes(b"MVRL" + struct.pack("<IQQ", 1, 2**62, 1) + np.zeros(1).tobytes())
        with pytest.raises(ValueError, match="truncated"):
            io.read_matrix(path)
        with pytest.raises(ValueError, match="truncated"):
            io.read_matrix_header(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "m.mvrl"
        io.write_matrix(path, np.zeros((1, 1)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            io.read_matrix(path)
        with pytest.raises(ValueError, match="trailing"):
            io.describe(path)


class TestModelContainer:
    def test_roundtrip_header_and_blocks(self, tmp_path):
        rng = np.random.default_rng(1)
        blocks = {
            "encoder": nn.MLP.from_dims([6, 3], "linear", "relu", rng),
            "decoder": nn.MLP.from_dims([3, 6], "relu", "linear", rng),
        }
        header = {"kind": "concat-ae", "enc": 3, "scaler": {"mean": [0.0] * 6}}
        path = tmp_path / "model.mvnn"
        io.write_model_container(path, header, blocks)
        got_header, got_blocks = io.read_model_container(path)
        assert got_header == header
        assert set(got_blocks) == {"encoder", "decoder"}
        x = rng.standard_normal((4, 6))
        assert np.array_equal(blocks["encoder"].forward(x), got_blocks["encoder"].forward(x))

    def test_version_gate(self, tmp_path):
        # a version-1 file: one bare MLP block, no JSON header
        bare = tmp_path / "bare.mvnn"
        layer = struct.pack("<IIII", 1, 2, 2, 0) + np.zeros(6).tobytes()
        bare.write_bytes(b"MVNN" + struct.pack("<I", 1) + layer)
        with pytest.raises(ValueError, match="version"):
            io.read_model_container(bare)

    def test_describe_both_formats(self, tmp_path):
        matrix_path = tmp_path / "m.mvrl"
        io.write_matrix(matrix_path, np.zeros((2, 5)))
        assert io.describe(matrix_path)["rows"] == 2

        rng = np.random.default_rng(0)
        container = tmp_path / "c.mvnn"
        io.write_model_container(
            container, {"kind": "raw"}, {"enc": nn.MLP.from_dims([3, 1], "linear", "linear", rng)}
        )
        info = io.describe(container)
        assert info["version"] == 2
        assert info["header"]["kind"] == "raw"
        assert info["blocks"] == {"enc": [{"fan_in": 3, "fan_out": 1, "activation": "linear"}]}

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "c.mvnn"
        io.write_model_container(path, {"kind": "raw"}, {})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            io.read_model_container(path)

    @pytest.mark.parametrize("offset", [8, 18, 27], ids=["header", "name", "fan_in"])
    def test_declared_size_past_end(self, tmp_path, offset):
        path = tmp_path / "m.mvnn"
        mlp = nn.MLP([nn.DenseLayer(np.zeros((2, 1)), np.zeros(1), "linear")])
        io.write_model_container(path, {}, {"m": mlp})
        blob = bytearray(path.read_bytes())
        blob[offset:offset + 4] = struct.pack("<I", 2**32 - 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="truncated"):
            io.read_model_container(path)

    def test_describe_unknown_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"ABCD1234")
        with pytest.raises(ValueError, match="magic"):
            io.describe(path)
