import struct

import numpy as np
import pytest

from mvtrace import io


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
            io.read_matrix_header(path)

