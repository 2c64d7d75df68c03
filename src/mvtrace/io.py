"""The MVRL matrix file format.

Little-endian: magic ``MVRL``, version u32, rows u64, cols u64, then the
row-major f64 payload.  Bit-exact contract for cross-language interop.

The reader checks the declared size against the bytes left in the file
before reading, and rejects trailing bytes.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MATRIX_MAGIC = b"MVRL"
MATRIX_VERSION = 1


def write_matrix(path, array: np.ndarray) -> None:
    """Write a 1-D or 2-D float array as an MVRL file (1-D becomes a column)."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim == 1:
        array = array[:, None]
    if array.ndim != 2:
        raise ValueError(f"MVRL stores matrices, got ndim={array.ndim}")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<I", MATRIX_VERSION))
        fh.write(struct.pack("<QQ", array.shape[0], array.shape[1]))
        fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    rows, cols, payload = _read_matrix_raw(path)
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(np.float64)


def read_matrix_header(path) -> dict:
    rows, cols, _ = _read_matrix_raw(path, header_only=True)
    return {"format": "MVRL", "version": MATRIX_VERSION, "rows": rows, "cols": cols}


def _read_matrix_raw(path, header_only: bool = False):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MATRIX_MAGIC:
            raise ValueError(f"{path}: not an MVRL file (magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != MATRIX_VERSION:
            raise ValueError(f"{path}: unsupported MVRL version {version}")
        rows, cols = struct.unpack("<QQ", _read_exact(fh, 16))
        declared, present = 8 * rows * cols, _remaining(fh)
        if declared != present:
            problem = "truncated file" if declared > present else "trailing bytes"
            raise ValueError(
                f"{path}: {problem}: a {rows}x{cols} matrix needs {declared} payload "
                f"bytes, the file has {present}"
            )
        payload = b"" if header_only else fh.read(declared)
    return rows, cols, payload


def _remaining(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n: int) -> bytes:
    """``n`` bytes; a size past the end of the file is rejected before any
    read or allocation."""
    left = _remaining(fh)
    if n > left:
        raise ValueError(f"truncated file: wanted {n} bytes, {left} left")
    return fh.read(n)
